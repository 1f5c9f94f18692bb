package ldt

import (
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

func TestScheduleMatchesPaperNumbering(t *testing.T) {
	// With start=1 the paper's numbering is rounds i, i+1, n+1,
	// 2n-i+1, 2n-i+2 for non-root nodes at distance i and 1, n+1,
	// 2n+1 for the root.
	const n = 10
	root := ScheduleFor(1, 0, n)
	if root.DownSend != 1 || root.Side != n+1 || root.UpReceive != 2*n+1 {
		t.Errorf("root schedule = %+v", root)
	}
	if root.DownReceive != -1 || root.UpSend != -1 {
		t.Errorf("root must have no down-receive/up-send, got %+v", root)
	}
	for i := 1; i < n; i++ {
		s := ScheduleFor(1, i, n)
		if s.DownReceive != int64(i) || s.DownSend != int64(i+1) || s.Side != n+1 ||
			s.UpReceive != int64(2*n-i+1) || s.UpSend != int64(2*n-i+2) {
			t.Errorf("level %d schedule = %+v", i, s)
		}
	}
}

func TestScheduleParentChildAlignment(t *testing.T) {
	const n = 64
	for start := int64(1); start <= 2; start++ {
		for i := 1; i < n; i++ {
			child := ScheduleFor(start, i, n)
			parent := ScheduleFor(start, i-1, n)
			if child.DownReceive != parent.DownSend {
				t.Fatalf("level %d: down-receive %d != parent down-send %d", i, child.DownReceive, parent.DownSend)
			}
			if child.UpSend != parent.UpReceive {
				t.Fatalf("level %d: up-send %d != parent up-receive %d", i, child.UpSend, parent.UpReceive)
			}
		}
	}
}

func TestScheduleStaysInsideBlock(t *testing.T) {
	const n = 17
	start := int64(100)
	end := start + BlockLen(n) - 1
	for i := 0; i < n; i++ {
		s := ScheduleFor(start, i, n)
		for _, r := range []int64{s.DownReceive, s.DownSend, s.Side, s.UpReceive, s.UpSend} {
			if r == -1 {
				continue
			}
			if r < start || r > end {
				t.Fatalf("level %d round %d outside block [%d,%d]", i, r, start, end)
			}
		}
	}
}

// runForest runs prog over g with the FLDT given by parents and
// returns the result plus final states.
func runForest(t *testing.T, g *graph.Graph, parents []int,
	prog func(nd *sim.Node, st *State) error) ([]*State, *sim.Result) {
	t.Helper()
	states, err := StatesFromParents(g, parents)
	if err != nil {
		t.Fatalf("states: %v", err)
	}
	res, err := sim.Run(sim.Config{Graph: g, Seed: 11}, func(nd *sim.Node) error {
		return prog(nd, states[nd.Index()])
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return states, res
}

type testPayload struct{ v int64 }

func (p testPayload) Bits() int { return FieldBits(p.v) }

func TestBroadcastReachesAllNodes(t *testing.T) {
	// Path 0-1-2-3-4 rooted at node 2 (levels 2,1,0,1,2).
	g := graph.Path(5, graph.GenConfig{Seed: 1})
	parents := []int{1, 2, -1, 2, 3}
	got := make([]interface{}, g.N())
	states, res := runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		var msg interface{}
		if st.IsRoot() {
			msg = testPayload{v: 42}
		}
		got[nd.Index()] = Broadcast(nd, st, 1, msg)
		return nil
	})
	for v := range got {
		if got[v] != (testPayload{v: 42}) {
			t.Errorf("node %d received %v, want 42", v, got[v])
		}
	}
	if err := Validate(g, states); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if m := res.MaxAwake(); m > 2 {
		t.Errorf("broadcast awake complexity %d, want <= 2", m)
	}
	if res.Rounds > BlockLen(g.N()) {
		t.Errorf("broadcast used %d rounds, block is %d", res.Rounds, BlockLen(g.N()))
	}
}

func TestUpcastMinFindsGlobalMin(t *testing.T) {
	// Star with hub 0 as root; values live at the leaves.
	g := graph.Star(6, graph.GenConfig{Seed: 2})
	parents := []int{-1, 0, 0, 0, 0, 0}
	vals := []int64{0, 50, 30, 99, 12, 77} // root holds none
	var rootGot *MinItem
	_, res := runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		var mine *MinItem
		if !st.IsRoot() {
			mine = &MinItem{Key: graph.WeightKey{W: vals[nd.Index()]}, Payload: testPayload{v: vals[nd.Index()]}}
		}
		out := UpcastMin(nd, st, 1, mine)
		if st.IsRoot() {
			rootGot = out
		}
		return nil
	})
	if rootGot == nil || rootGot.Key.W != 12 {
		t.Fatalf("root got %+v, want key 12", rootGot)
	}
	if rootGot.Payload != (testPayload{v: 12}) {
		t.Fatalf("root payload %v, want 12", rootGot.Payload)
	}
	if m := res.MaxAwake(); m > 2 {
		t.Errorf("upcast awake complexity %d, want <= 2", m)
	}
}

func TestUpcastMinDeepTree(t *testing.T) {
	// A path rooted at one end exercises multi-hop upcast.
	const n = 33
	g := graph.Path(n, graph.GenConfig{Seed: 3})
	parents := make([]int, n)
	for i := range parents {
		parents[i] = i - 1 // rooted at node 0
	}
	var rootGot *MinItem
	_, res := runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		mine := &MinItem{Key: graph.WeightKey{W: int64(100 + (nd.Index()*37)%n)}}
		out := UpcastMin(nd, st, 1, mine)
		if st.IsRoot() {
			rootGot = out
		}
		return nil
	})
	if rootGot == nil || rootGot.Key.W != 100 {
		t.Fatalf("root got %+v, want key 100", rootGot)
	}
	if m := res.MaxAwake(); m > 2 {
		t.Errorf("awake complexity %d, want <= 2", m)
	}
}

func TestUpcastMinNilEverywhere(t *testing.T) {
	g := graph.Path(4, graph.GenConfig{Seed: 4})
	parents := []int{-1, 0, 1, 2}
	var rootGot *MinItem
	runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		out := UpcastMin(nd, st, 1, nil)
		if st.IsRoot() {
			rootGot = out
		}
		return nil
	})
	if rootGot != nil {
		t.Fatalf("root got %+v, want nil", rootGot)
	}
}

func TestTransmitAdjacentCrossesFragments(t *testing.T) {
	// Path 0-1-2-3: two 2-node fragments {0,1} and {2,3}.
	g := graph.Path(4, graph.GenConfig{Seed: 5})
	parents := []int{-1, 0, -1, 2}
	type adjMsg struct{ frag int64 }
	heard := make([]map[int]int64, g.N())
	_, res := runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		out := nd.Outbox()
		for p := range out {
			out[p] = adjMsg{frag: st.FragID}
		}
		in := TransmitAdjacent(nd, 1, out)
		m := make(map[int]int64)
		for p, raw := range in {
			if raw != nil {
				m[p] = raw.(adjMsg).frag
			}
		}
		heard[nd.Index()] = m
		return nil
	})
	// Node 1 (fragment rooted at 0, ID 1) must hear fragment ID 3 from
	// node 2 and vice versa.
	found := false
	for _, f := range heard[1] {
		if f == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("node 1 heard %v, want fragment 3 among them", heard[1])
	}
	found = false
	for _, f := range heard[2] {
		if f == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("node 2 heard %v, want fragment 1 among them", heard[2])
	}
	if m := res.MaxAwake(); m != 1 {
		t.Errorf("transmit-adjacent awake complexity %d, want exactly 1", m)
	}
}

func TestDownDistributesDistinctValues(t *testing.T) {
	// Token-distribution shape: root splits a budget across children.
	g := graph.Star(4, graph.GenConfig{Seed: 6})
	parents := []int{-1, 0, 0, 0}
	got := make([]interface{}, g.N())
	runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		rcv := Down(nd, st, 1, testPayload{v: 6}, func(received testPayload, send func(int, testPayload)) {
			for _, c := range st.Children {
				send(c, testPayload{v: received.v / int64(len(st.Children))})
			}
		})
		got[nd.Index()] = rcv
		return nil
	})
	for v := 1; v < 4; v++ {
		if got[v] != (testPayload{v: 2}) {
			t.Errorf("leaf %d got %v, want 2", v, got[v])
		}
	}
}

// TestMergingFragmentsFigures reproduces the Appendix C walkthrough
// (Figures 2-5): a tails fragment re-roots at its MOE node and hangs
// below the heads fragment with correct levels and IDs.
func TestMergingFragmentsFigures(t *testing.T) {
	// Heads fragment: 0 <- 1 (u_H = 1, level 1).
	// Tails fragment: path 2 <- 3 <- 4 rooted at 2, and u_T = 4 at
	// level 2, with the MOE edge 4-1.
	g := graph.MustNew(5, []graph.Edge{
		{U: 0, V: 1, Weight: 10},
		{U: 1, V: 4, Weight: 1}, // the MOE
		{U: 2, V: 3, Weight: 20},
		{U: 3, V: 4, Weight: 30},
	})
	parents := []int{-1, 0, -1, 2, 3}
	states, err := StatesFromParents(g, parents)
	if err != nil {
		t.Fatalf("states: %v", err)
	}
	moePort := -1
	for p, pt := range g.Ports(4) {
		if pt.To == 1 {
			moePort = p
		}
	}
	if moePort < 0 {
		t.Fatal("no MOE port")
	}
	res, err := sim.Run(sim.Config{Graph: g, Seed: 1}, func(nd *sim.Node) error {
		st := states[nd.Index()]
		dec := NoMerge
		if st.FragID == g.ID(2) { // tails fragment
			dec = MergeDecision{Merging: true, AttachPort: -1}
			if nd.Index() == 4 {
				dec.AttachPort = moePort
			}
		}
		MergingFragments(nd, st, 1, dec)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := Validate(g, states); err != nil {
		t.Fatalf("post-merge validate: %v", err)
	}
	// One fragment, rooted at node 0, with the paper's final labels:
	// 0:0, 1:1, 4:2, 3:3, 2:4.
	wantLevels := []int{0, 1, 4, 3, 2}
	for v, want := range wantLevels {
		if states[v].Level != want {
			t.Errorf("node %d level %d, want %d", v, states[v].Level, want)
		}
		if states[v].FragID != g.ID(0) {
			t.Errorf("node %d fragment %d, want %d", v, states[v].FragID, g.ID(0))
		}
	}
	if FragmentCount(states) != 1 {
		t.Errorf("fragments = %d, want 1", FragmentCount(states))
	}
	if m := res.MaxAwake(); m > 5 {
		t.Errorf("merge awake complexity %d, want <= 5", m)
	}
	if res.Rounds > int64(MergeBlocks)*BlockLen(g.N()) {
		t.Errorf("merge used %d rounds, budget %d", res.Rounds, int64(MergeBlocks)*BlockLen(g.N()))
	}
}

func TestMergingFragmentsSingleton(t *testing.T) {
	// A singleton fragment (node 2) merges into a 2-node heads
	// fragment below node 1.
	g := graph.Path(3, graph.GenConfig{Seed: 7})
	parents := []int{-1, 0, -1}
	states, err := StatesFromParents(g, parents)
	if err != nil {
		t.Fatalf("states: %v", err)
	}
	_, err = sim.Run(sim.Config{Graph: g, Seed: 1}, func(nd *sim.Node) error {
		st := states[nd.Index()]
		dec := NoMerge
		if nd.Index() == 2 {
			dec = MergeDecision{Merging: true, AttachPort: 0} // its only port
		}
		MergingFragments(nd, st, 1, dec)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := Validate(g, states); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if states[2].Level != 2 || states[2].FragID != g.ID(0) {
		t.Errorf("singleton state = %+v, want level 2 fragment %d", states[2], g.ID(0))
	}
}

func TestMergingFragmentsMultipleTailsIntoOneHead(t *testing.T) {
	// Star: hub 0 is a heads singleton; leaves 1..4 are tails
	// singletons all attaching to the hub.
	g := graph.Star(5, graph.GenConfig{Seed: 8})
	states := SingletonStates(g)
	_, err := sim.Run(sim.Config{Graph: g, Seed: 1}, func(nd *sim.Node) error {
		st := states[nd.Index()]
		dec := NoMerge
		if nd.Index() != 0 {
			dec = MergeDecision{Merging: true, AttachPort: 0}
		}
		MergingFragments(nd, st, 1, dec)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := Validate(g, states); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if FragmentCount(states) != 1 {
		t.Errorf("fragments = %d, want 1", FragmentCount(states))
	}
	if len(states[0].Children) != 4 {
		t.Errorf("hub children = %v, want 4 ports", states[0].Children)
	}
}

func TestValidateRejectsBrokenForests(t *testing.T) {
	g := graph.Path(3, graph.GenConfig{Seed: 9})
	states, err := StatesFromParents(g, []int{-1, 0, 1})
	if err != nil {
		t.Fatalf("states: %v", err)
	}
	if err := Validate(g, states); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	cases := []struct {
		name   string
		break_ func([]*State)
	}{
		{"wrong level", func(ss []*State) { ss[2].Level = 7 }},
		{"wrong fragment", func(ss []*State) { ss[2].FragID = 999 }},
		{"root with level", func(ss []*State) { ss[0].Level = 1 }},
		{"orphan child", func(ss []*State) { ss[1].Children = nil }},
		{"parent as child", func(ss []*State) { ss[1].Children = append(ss[1].Children, ss[1].ParentPort) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss := make([]*State, len(states))
			for i, s := range states {
				ss[i] = s.Clone()
			}
			tc.break_(ss)
			if err := Validate(g, ss); err == nil {
				t.Error("broken forest accepted")
			}
		})
	}
}

func TestStatesFromParentsRejectsNonEdges(t *testing.T) {
	g := graph.Path(3, graph.GenConfig{Seed: 10})
	if _, err := StatesFromParents(g, []int{-1, 0, 0}); err == nil {
		t.Error("want error for parent not adjacent")
	}
}

func TestFieldBits(t *testing.T) {
	cases := []struct {
		x    int64
		want int
	}{{0, 1}, {1, 2}, {2, 3}, {3, 3}, {255, 9}, {-255, 9}, {1 << 20, 22}}
	for _, tc := range cases {
		if got := FieldBits(tc.x); got != tc.want {
			t.Errorf("FieldBits(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

// TestWaveKindAllocationFree pins the wave envelope's tally names —
// "wave-"+payload kind, or "wave" for an unkinded payload — and that
// naming a delivered wave allocates nothing once its kind was seen.
func TestWaveKindAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		msg  sim.Kinded
		want string
	}{
		{wireMsg{payload: MinItem{}}, "wave-upcast-min"},
		{wireMsg{payload: waveMsg{}}, "wave-merge-wave"},
		{wireMsg{payload: testPayload{v: 1}}, "wave"},
		{wireMsg{}, "wave"},
	} {
		if got := tc.msg.MsgKind(); got != tc.want {
			t.Errorf("MsgKind() = %q, want %q", got, tc.want)
		}
		if a := testing.AllocsPerRun(100, func() { _ = tc.msg.MsgKind() }); a != 0 {
			t.Errorf("%s: MsgKind allocates %.1f times per call, want 0", tc.want, a)
		}
	}
}
