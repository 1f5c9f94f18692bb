package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
)

// algorithms under test, including the traditional-model comparators.
var allAlgorithms = map[string]func(*graph.Graph, Options) (*Outcome, error){
	"randomized":    RunRandomized,
	"deterministic": RunDeterministic,
	"logstar":       RunLogStar,
	"baseline":      RunBaseline,
	"classic-ghs":   RunClassicGHS,
}

// TestAllAlgorithmsAllTopologies is the full correctness matrix: every
// algorithm on every topology family must produce the unique MST.
func TestAllAlgorithmsAllTopologies(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"path":        graph.Path(14, graph.GenConfig{Seed: 41}),
		"cycle":       graph.Cycle(15, graph.GenConfig{Seed: 42}),
		"star":        graph.Star(12, graph.GenConfig{Seed: 43}),
		"complete":    graph.Complete(11, graph.GenConfig{Seed: 44}),
		"grid":        graph.Grid(4, 4, graph.GenConfig{Seed: 45}),
		"btree":       graph.BinaryTree(15, graph.GenConfig{Seed: 46}),
		"caterpillar": graph.Caterpillar(4, 3, graph.GenConfig{Seed: 47}),
		"geometric":   graph.RandomGeometric(24, 0.3, graph.GenConfig{Seed: 48}),
		"sparse":      graph.RandomConnected(30, 32, graph.GenConfig{Seed: 49}),
		"dense":       graph.RandomConnected(20, 140, graph.GenConfig{Seed: 50}),
		"unit-w":      graph.Grid(3, 5, graph.GenConfig{Seed: 51, Weights: graph.WeightsUnit}),
		"large-w":     graph.RandomConnected(20, 50, graph.GenConfig{Seed: 52, Weights: graph.WeightsRandomLarge}),
	}
	for tname, g := range topologies {
		for aname, run := range allAlgorithms {
			t.Run(fmt.Sprintf("%s/%s", tname, aname), func(t *testing.T) {
				checkMST(t, g, run, Options{Seed: 99})
			})
		}
	}
}

// TestQuickRandomizedMatchesKruskal is the core property test: on
// arbitrary random connected graphs the distributed algorithm computes
// exactly the reference MST.
func TestQuickRandomizedMatchesKruskal(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(seed%23+23)%23
		g := graph.RandomConnected(n, 2*n, graph.GenConfig{Seed: seed})
		out, err := RunRandomized(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		return graph.SameEdgeSet(out.MSTEdges, graph.Kruskal(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterministicMatchesKruskal is the deterministic analogue.
func TestQuickDeterministicMatchesKruskal(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(seed%17+17)%17
		g := graph.RandomConnected(n, 2*n, graph.GenConfig{Seed: seed})
		out, err := RunDeterministic(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		return graph.SameEdgeSet(out.MSTEdges, graph.Kruskal(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFinalStatesAreTheMST cross-checks the two output channels: the
// per-node LDT tree ports and the edge list must describe the same
// tree.
func TestFinalStatesAreTheMST(t *testing.T) {
	g := graph.RandomConnected(36, 90, graph.GenConfig{Seed: 53})
	out, err := RunRandomized(g, Options{Seed: 53})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fromStates := ldt.TreeEdges(g, out.States)
	if !graph.SameEdgeSet(fromStates, out.MSTEdges) {
		t.Error("state tree ports and MSTEdges disagree")
	}
	// Exactly one root.
	roots := 0
	for _, st := range out.States {
		if st.IsRoot() {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}
}

// TestMessagesNeverLostBySleepers asserts a structural property of the
// block-scheduled algorithms: every message is sent to a neighbor that
// is awake in the same round (the schedules are aligned), so nothing
// is ever lost.
func TestMessagesNeverLostBySleepers(t *testing.T) {
	g := graph.RandomConnected(40, 120, graph.GenConfig{Seed: 54})
	for name, run := range allAlgorithms {
		if name == "classic-ghs" {
			continue // event-driven sends may hit just-halted neighbors
		}
		out, err := run(g, Options{Seed: 54})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Result.MessagesLost != 0 {
			t.Errorf("%s: %d messages lost; schedules must be aligned", name, out.Result.MessagesLost)
		}
	}
}

// TestAwakeDistributionTight checks that not just the max but every
// node's awake count is O(log n) — the paper's guarantee is per-node.
func TestAwakeDistributionTight(t *testing.T) {
	g := graph.RandomConnected(200, 600, graph.GenConfig{Seed: 55})
	out, err := RunRandomized(g, Options{Seed: 55})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	max := out.Result.MaxAwake()
	mean := out.Result.MeanAwake()
	if float64(max) > 3*mean {
		t.Errorf("awake max %d vs mean %.1f: distribution unexpectedly skewed", max, mean)
	}
}

// TestPhaseRecorderColumns sanity-checks the decay recording plumbing
// of runPhases: distinct fragment IDs per executed phase, nodes that
// halted earlier left out, and nothing without RecordPhases.
func TestPhaseRecorderColumns(t *testing.T) {
	g := graph.Path(3, graph.GenConfig{Seed: 1})
	frags := [][]int64{{10, 10, 20}, {10, 10, 10}, {30, 30, 0}}
	phase := func(c *nodeCtx, start int64) bool {
		p := c.phase - 1
		c.st.FragID = frags[p][c.nd.Index()]
		// Node 2 halts after phase 2, the others after phase 3.
		return p == 2 || (p == 1 && c.nd.Index() == 2)
	}
	out, err := runPhases(g, Options{RecordPhases: true}, 5, 1, phase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.FragmentsPerPhase; out.Phases != 3 || len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("phases = %d, counts = %v, want 3 and [2 1 1]", out.Phases, got)
	}
	out, err = runPhases(g, Options{}, 5, 1, phase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.FragmentsPerPhase != nil {
		t.Error("recording without RecordPhases")
	}
}

func TestDefaultBitCap(t *testing.T) {
	g := graph.RandomConnected(30, 60, graph.GenConfig{Seed: 56})
	cap := DefaultBitCap(g)
	if cap <= 0 || cap > 16*64 {
		t.Errorf("bit cap = %d, want a small multiple of log2 of the weight space", cap)
	}
}

// TestCongestionBoundedByAwake verifies the inequality Theorem 4's
// proof charges: with the CONGEST cap enforced, a node receiving B
// bits must have been awake at least B/(cap·degree) rounds.
func TestCongestionBoundedByAwake(t *testing.T) {
	g := graph.RandomConnected(50, 150, graph.GenConfig{Seed: 57})
	bitCap := DefaultBitCap(g)
	out, err := RunRandomized(g, Options{Seed: 57, BitCap: bitCap})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		maxBits := out.Result.AwakePerNode[v] * int64(bitCap) * int64(g.Degree(v))
		if out.Result.BitsReceivedPerNode[v] > maxBits {
			t.Errorf("node %d received %d bits but could absorb at most %d",
				v, out.Result.BitsReceivedPerNode[v], maxBits)
		}
	}
}
