package ldt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/sim"
	"sleepmst/internal/transport"
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

// testPayload is registered without a label, like the core's MOE
// reports: a wave carrying it tallies as plain "wave".
type testPayload struct{ v int64 }

func (p testPayload) Bits() int { return FieldBits(p.v) }

func init() {
	transport.Register(transport.Codec{
		Kind: 3, Type: reflect.TypeOf(testPayload{}),
		Encode: func(msg interface{}, w *transport.Writer) { w.Int(msg.(testPayload).v) },
		Decode: func(r *transport.Reader) interface{} { return testPayload{v: r.Int()} },
	})
}

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
	var rootGot MinItem
	var rootHas bool
	_, res := runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		mine := MinItem{Key: graph.WeightKey{W: vals[nd.Index()]}, Payload: testPayload{v: vals[nd.Index()]}}
		out, ok := UpcastMin(nd, st, 1, mine, !st.IsRoot())
		if st.IsRoot() {
			rootGot, rootHas = out, ok
		}
		return nil
	})
	if !rootHas || rootGot.Key.W != 12 {
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
	var rootGot MinItem
	var rootHas bool
	_, res := runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		mine := MinItem{Key: graph.WeightKey{W: int64(100 + (nd.Index()*37)%n)}}
		out, ok := UpcastMin(nd, st, 1, mine, true)
		if st.IsRoot() {
			rootGot, rootHas = out, ok
		}
		return nil
	})
	if !rootHas || rootGot.Key.W != 100 {
		t.Fatalf("root got %+v, want key 100", rootGot)
	}
	if m := res.MaxAwake(); m > 2 {
		t.Errorf("awake complexity %d, want <= 2", m)
	}
}

func TestUpcastMinNilEverywhere(t *testing.T) {
	g := graph.Path(4, graph.GenConfig{Seed: 4})
	parents := []int{-1, 0, 1, 2}
	rootHas := true
	runForest(t, g, parents, func(nd *sim.Node, st *State) error {
		out, ok := UpcastMin(nd, st, 1, MinItem{}, false)
		if st.IsRoot() {
			rootHas = ok
			if ok {
				t.Errorf("root got %+v, want none", out)
			}
		}
		return nil
	})
	if rootHas {
		t.Fatal("root reports an item, want none")
	}
}

// envelopeSink keeps minEnvelope's result alive under AllocsPerRun.
var envelopeSink interface{}

// TestMinEnvelopeBoxesOnlyAnOwnWinner pins Upcast-Min's allocation per
// node: a node whose child's item wins forwards that child's envelope
// and allocates nothing, and so does a node whose subtree holds no
// item; only a node whose own item wins boxes it, and only when the
// item differs from the one it boxed last.
func TestMinEnvelopeBoxesOnlyAnOwnWinner(t *testing.T) {
	win := MinItem{Key: graph.WeightKey{W: 1}, Payload: testPayload{v: 1}}
	childWins := sim.Inbox{wireMsg{payload: MinItem{Key: graph.WeightKey{W: 9}}}, nil, wireMsg{payload: win}, emptyEnvelope}
	empty := sim.Inbox{emptyEnvelope, nil}
	mine := MinItem{Key: graph.WeightKey{W: 5}, Payload: testPayload{v: 5}}
	for _, c := range []struct {
		name      string
		in        sim.Inbox
		mine      MinItem
		have      bool
		want      interface{}
		maxAllocs float64
	}{
		{"child wins", childWins, mine, true, childWins[2], 0},
		{"empty subtree", empty, MinItem{}, false, emptyEnvelope, 0},
		{"leaf without item", nil, MinItem{}, false, emptyEnvelope, 0},
		{"own item wins", empty, mine, true, wireMsg{payload: mine}, 2},
	} {
		st := &State{Children: make([]int, len(c.in))}
		for i := range st.Children {
			st.Children[i] = i
		}
		env, _, _ := minEnvelope(c.in, st, c.mine, c.have)
		if env != c.want {
			t.Errorf("%s: forwards %v, want %v", c.name, env, c.want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			*st = State{Children: st.Children} // a node that never sent an item
			envelopeSink, _, _ = minEnvelope(c.in, st, c.mine, c.have)
		})
		if allocs > c.maxAllocs {
			t.Errorf("%s: %.0f allocations per node, want at most %.0f", c.name, allocs, c.maxAllocs)
		}
	}

	// An own item that wins again with equal content goes up in the
	// envelope boxed for it last time; a changed one gets a new
	// envelope, and the earlier envelope still carries the old item.
	st := &State{Children: []int{0, 1}}
	first, _, _ := minEnvelope(empty, st, mine, true)
	if again := testing.AllocsPerRun(100, func() { envelopeSink, _, _ = minEnvelope(empty, st, mine, true) }); again != 0 {
		t.Errorf("own item wins again: %.0f allocations, want 0", again)
	}
	moved := MinItem{Key: graph.WeightKey{W: 4}, Payload: testPayload{v: 4}}
	if env, _, _ := minEnvelope(empty, st, moved, true); env != (wireMsg{payload: moved}) {
		t.Errorf("changed own item forwards %v, want %v", env, wireMsg{payload: moved})
	}
	if first != (wireMsg{payload: mine}) {
		t.Errorf("the earlier envelope now carries %v, want %v", first, wireMsg{payload: mine})
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

// fieldBitsLoop is the per-bit loop FieldBits replaced, kept as its
// reference.
func fieldBitsLoop(x int64) int {
	if x < 0 {
		x = -x
	}
	n := 1 // sign / presence bit
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// TestFieldBits pins FieldBits on zero, ±1, both extremes and every
// power of two ±1, and holds it to the per-bit loop on random values.
func TestFieldBits(t *testing.T) {
	type fieldCase struct {
		x    int64
		want int
	}
	cases := []fieldCase{{0, 1}, {1, 2}, {-1, 2}, {2, 3}, {3, 3}, {255, 9}, {-255, 9}, {1 << 20, 22},
		{math.MaxInt64, 64}, {-math.MaxInt64, 64}, {math.MinInt64, 1}}
	for k := 1; k < 63; k++ {
		p := int64(1) << k
		cases = append(cases, fieldCase{p - 1, k + 1}, fieldCase{p, k + 2}, fieldCase{p + 1, k + 2},
			fieldCase{-p, k + 2}, fieldCase{-p - 1, k + 2})
	}
	for _, tc := range cases {
		if got := FieldBits(tc.x); got != tc.want {
			t.Errorf("FieldBits(%d) = %d, want %d", tc.x, got, tc.want)
		}
		if got := fieldBitsLoop(tc.x); got != tc.want {
			t.Errorf("fieldBitsLoop(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
	// Random values of every bit length, both signs.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		x := rng.Int63() >> rng.Intn(64)
		if rng.Intn(2) == 0 {
			x = -x
		}
		if got, want := FieldBits(x), fieldBitsLoop(x); got != want {
			t.Fatalf("FieldBits(%d) = %d, the loop gives %d", x, got, want)
		}
	}
}

// TestWaveTallyLabels: with metrics on, a wave tallies as "wave-" plus
// its payload's label — Upcast-Min traffic as wave-upcast-min, a
// broadcast merge wave as wave-merge-wave — and as plain "wave" when
// the payload is unlabeled or nil. Extra rounds of wave deliveries
// allocate nothing, so the tally needs no label memo.
func TestWaveTallyLabels(t *testing.T) {
	// Path 0-1-2-3-4 rooted at node 2: every wave crosses 4 tree edges.
	g := graph.Path(5, graph.GenConfig{Seed: 1})
	states, err := StatesFromParents(g, []int{1, 2, -1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	block := BlockLen(g.N())
	_, err = sim.Run(sim.Config{Graph: g, Seed: 11, Metrics: reg}, func(nd *sim.Node) error {
		st := states[nd.Index()]
		UpcastMin(nd, st, 1, MinItem{Key: graph.WeightKey{W: int64(nd.Index())}}, true)
		Broadcast(nd, st, 1+block, waveMsg{fragID: 2})
		Broadcast(nd, st, 1+2*block, testPayload{v: 3})
		Up(nd, st, 1+3*block, interface{}(nil), func(acc interface{}, _ int, _ interface{}) interface{} { return acc })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range map[string]int64{"wave-upcast-min": 4, "wave-merge-wave": 4, "wave": 8, "other": 0} {
		if got := reg.Get(metrics.MsgName(label)); got != want {
			t.Errorf("%s tally %d, want %d", label, got, want)
		}
	}

	// Every node sends pre-boxed envelopes of all four kinds around a
	// ring, so only the runtime's own work is measured.
	ring := graph.Cycle(16, graph.GenConfig{Seed: 1})
	envs := []interface{}{wireMsg{payload: MinItem{}}, wireMsg{payload: waveMsg{}}, wireMsg{payload: testPayload{}}, wireMsg{}}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := sim.Run(sim.Config{Graph: ring, Seed: 1, Metrics: metrics.New()}, func(nd *sim.Node) error {
				for r := 0; r < rounds; r++ {
					out := nd.Outbox()
					for p := range out {
						out[p] = envs[(r+p)%len(envs)]
					}
					nd.Exchange(out)
					nd.SleepUntil(nd.Round() + 1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(8), allocs(40); long != short {
		t.Errorf("40 rounds of waves allocate %.0f, 8 rounds %.0f, want no allocation per extra round", long, short)
	}
}
