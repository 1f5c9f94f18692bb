package ldt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// randomForest builds a random FLDT over a random connected graph:
// a random subset of a random spanning forest, with arbitrary roots.
func randomForest(seed int64) (*graph.Graph, []int) {
	r := rand.New(rand.NewSource(seed))
	n := 8 + r.Intn(25)
	g := graph.RandomConnected(n, n+r.Intn(2*n), graph.GenConfig{Seed: seed})
	// Random spanning forest: BFS trees from random roots over a
	// random subset of nodes claimed greedily.
	parents := make([]int, n)
	for i := range parents {
		parents[i] = -2 // unclaimed
	}
	order := r.Perm(n)
	var stack []int
	for _, root := range order {
		if parents[root] != -2 {
			continue
		}
		// Start a new fragment at root with random growth probability.
		parents[root] = -1
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Ports(v) {
				if parents[p.To] == -2 && r.Intn(3) > 0 {
					parents[p.To] = v
					stack = append(stack, p.To)
				}
			}
		}
	}
	// Any leftovers become singleton fragments.
	for i := range parents {
		if parents[i] == -2 {
			parents[i] = -1
		}
	}
	return g, parents
}

func TestQuickStatesFromParentsAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		g, parents := randomForest(seed)
		states, err := StatesFromParents(g, parents)
		if err != nil {
			return false
		}
		return Validate(g, states) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBroadcastReachesEveryFragmentMember(t *testing.T) {
	f := func(seed int64) bool {
		g, parents := randomForest(seed)
		states, err := StatesFromParents(g, parents)
		if err != nil {
			return false
		}
		got := make([]int64, g.N())
		_, err = sim.Run(sim.Config{Graph: g, Seed: seed}, func(nd *sim.Node) error {
			st := states[nd.Index()]
			var msg interface{}
			if st.IsRoot() {
				msg = testPayload{v: st.FragID * 1000}
			}
			res := Broadcast(nd, st, 1, msg)
			got[nd.Index()] = res.(testPayload).v
			return nil
		})
		if err != nil {
			return false
		}
		for v := range got {
			if got[v] != states[v].FragID*1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickUpcastMinMatchesSequentialMin(t *testing.T) {
	f := func(seed int64) bool {
		g, parents := randomForest(seed)
		states, err := StatesFromParents(g, parents)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed + 1))
		vals := make([]int64, g.N())
		for v := range vals {
			vals[v] = r.Int63n(1 << 30)
		}
		// Sequential per-fragment minima.
		want := map[int64]int64{}
		for v, st := range states {
			if cur, ok := want[st.FragID]; !ok || vals[v] < cur {
				want[st.FragID] = vals[v]
			}
		}
		rootGot := make([]int64, g.N())
		for i := range rootGot {
			rootGot[i] = -1
		}
		_, err = sim.Run(sim.Config{Graph: g, Seed: seed}, func(nd *sim.Node) error {
			st := states[nd.Index()]
			out, _ := UpcastMin(nd, st, 1, MinItem{Key: graph.WeightKey{W: vals[nd.Index()]}}, true)
			if st.IsRoot() {
				rootGot[nd.Index()] = out.Key.W
			}
			return nil
		})
		if err != nil {
			return false
		}
		for v, st := range states {
			if st.IsRoot() && rootGot[v] != want[st.FragID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeWavePreservesInvariant drives random single-fragment
// merges: pick a random fragment with an outgoing edge, merge it into
// the neighbor across a random outgoing edge, and validate the FLDT
// after every wave.
func TestQuickMergeWavePreservesInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g, parents := randomForest(seed)
		states, err := StatesFromParents(g, parents)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed + 2))
		// Choose the merging fragment and its attachment edge: a random
		// node with a cross-fragment edge.
		type attach struct {
			node, port int
		}
		var candidates []attach
		for v := 0; v < g.N(); v++ {
			for p, pt := range g.Ports(v) {
				if states[pt.To].FragID != states[v].FragID {
					candidates = append(candidates, attach{node: v, port: p})
				}
			}
		}
		if len(candidates) == 0 {
			return true // single fragment, nothing to merge
		}
		pick := candidates[r.Intn(len(candidates))]
		mergingFrag := states[pick.node].FragID
		_, err = sim.Run(sim.Config{Graph: g, Seed: seed}, func(nd *sim.Node) error {
			st := states[nd.Index()]
			dec := NoMerge
			if st.FragID == mergingFrag {
				dec = MergeDecision{Merging: true, AttachPort: -1}
				if nd.Index() == pick.node {
					dec.AttachPort = pick.port
				}
			}
			MergingFragments(nd, st, 1, dec)
			return nil
		})
		if err != nil {
			return false
		}
		if err := Validate(g, states); err != nil {
			return false
		}
		// The merging fragment must have disappeared.
		for _, st := range states {
			if st.FragID == mergingFrag {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
