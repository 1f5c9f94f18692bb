package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	return graph.RandomConnected(n, 3*n, graph.GenConfig{Seed: 9})
}

func TestZeroOptionsInjectNothing(t *testing.T) {
	p := New(Options{Seed: 3})
	if p.Active() {
		t.Fatal("zero-rate policy reports Active")
	}
	g := testGraph(t, 24)
	for _, r := range []Runner{
		{"randomized", core.RunRandomized},
		{"deterministic", core.RunDeterministic},
		{"baseline", core.RunBaseline},
	} {
		out, err := r.Run(g, core.Options{Seed: 5, Interceptor: New(Options{Seed: 3})})
		if err != nil {
			t.Fatalf("%s with inactive policy: %v", r.Name, err)
		}
		if got := Classify(g, out, err); got != CorrectMST {
			t.Errorf("%s classified %v, want correct-mst", r.Name, got)
		}
		if out.Result.MessagesDropped != 0 || out.Result.WakesPerturbed != 0 {
			t.Errorf("%s: inactive policy injected faults: %+v", r.Name, out.Result)
		}
	}
}

// TestDeterministicReplay is the replay regression: two runs with an
// identical Config — including a chaos policy and seed — must produce
// byte-identical Result metrics and identical oracle classifications.
func TestDeterministicReplay(t *testing.T) {
	g := testGraph(t, 32)
	run := func() ([]byte, Classification, int64) {
		policy := New(Options{Seed: 11, DropRate: 0.03, DelayRate: 0.02, FlipRate: 0.01, OversleepRate: 0.01})
		out, err := core.RunRandomized(g, core.Options{Seed: 4, Interceptor: policy})
		var res *sim.Result
		if out != nil {
			res = out.Result
		}
		b, jerr := json.Marshal(res)
		if jerr != nil {
			t.Fatalf("marshal: %v", jerr)
		}
		return b, Classify(g, out, err), FirstDivergence(policy, res)
	}
	b1, c1, f1 := run()
	b2, c2, f2 := run()
	if !bytes.Equal(b1, b2) {
		t.Errorf("replay produced different Result metrics:\n%s\n%s", b1, b2)
	}
	if c1 != c2 {
		t.Errorf("replay classified %v then %v", c1, c2)
	}
	if f1 != f2 {
		t.Errorf("replay first-divergence %d then %d", f1, f2)
	}
}

func TestPolicyHashIsStateless(t *testing.T) {
	a, b := New(Options{Seed: 7, DropRate: 0.5}), New(Options{Seed: 7, DropRate: 0.5})
	a.BeginRun(10)
	b.BeginRun(10)
	for r := int64(1); r <= 50; r++ {
		evA := sim.MessageEvent{Round: r, From: int(r) % 10, Port: 0, Payload: r}
		evB := evA
		a.InterceptMessage(&evA)
		// Interleave unrelated queries on b: decisions must not depend
		// on call order.
		b.InterceptWake(3, r)
		b.InterceptMessage(&evB)
		if evA.Drop != evB.Drop {
			t.Fatalf("round %d: drop decisions diverge (%v vs %v)", r, evA.Drop, evB.Drop)
		}
	}
}

func TestCrashTableFromFraction(t *testing.T) {
	p := New(Options{Seed: 1, CrashFrac: 0.25, CrashWindow: 100})
	p.BeginRun(40)
	crashed := 0
	for v := 0; v < 40; v++ {
		if cr := p.CrashRound(v); cr != 0 {
			crashed++
			if cr < 1 || cr > 100 {
				t.Errorf("node %d crash round %d outside [1, 100]", v, cr)
			}
		}
	}
	if crashed != 10 {
		t.Errorf("crashed %d nodes, want 10 (25%% of 40)", crashed)
	}
	// Same options, fresh policy: identical table.
	q := New(Options{Seed: 1, CrashFrac: 0.25, CrashWindow: 100})
	q.BeginRun(40)
	for v := 0; v < 40; v++ {
		if p.CrashRound(v) != q.CrashRound(v) {
			t.Fatalf("crash tables differ at node %d", v)
		}
	}
}

func TestExplicitCrashSchedule(t *testing.T) {
	p := New(Options{Seed: 1, Crash: []CrashEvent{{Node: 3, Round: 7}, {Node: 99, Round: 2}, {Node: -1, Round: 5}}})
	p.BeginRun(10)
	if p.CrashRound(3) != 7 {
		t.Errorf("CrashRound(3) = %d, want 7", p.CrashRound(3))
	}
	if p.CrashRound(5) != 0 {
		t.Errorf("CrashRound(5) = %d, want 0", p.CrashRound(5))
	}
	// Out-of-range entries are ignored.
	if p.CrashRound(99) != 0 || p.CrashRound(-1) != 0 {
		t.Error("out-of-range crash entries not ignored")
	}
}

func TestCrashedRunsDisconnect(t *testing.T) {
	g := testGraph(t, 24)
	policy := New(Options{Seed: 2, Crash: []CrashEvent{{Node: 5, Round: 3}}})
	out, err := core.RunRandomized(g, core.Options{Seed: 2, Interceptor: policy})
	if err == nil {
		t.Fatal("want convergence failure with a crashed node")
	}
	if got := Classify(g, out, err); got != Disconnected {
		t.Errorf("classified %v, want disconnected (err=%v)", got, err)
	}
	if out != nil && out.Result.CrashRound[5] != 3 {
		t.Errorf("CrashRound[5] = %v, want 3", out.Result.CrashRound)
	}
}

type flipStruct struct {
	fragID int64
	level  int
	label  string
}

type flipWrapper struct {
	payload interface{}
}

func TestFlipBitMutatesUnexportedInts(t *testing.T) {
	orig := flipStruct{fragID: 0b1000, level: 2, label: "x"}
	flippedAny := false
	for h := uint64(0); h < 32; h++ {
		got, ok := flipBit(orig, splitmix64(h))
		if !ok {
			t.Fatalf("h=%d: flipBit failed on int-bearing struct", h)
		}
		fs := got.(flipStruct)
		if fs.label != "x" {
			t.Errorf("h=%d: non-integer field changed: %+v", h, fs)
		}
		if fs != orig {
			flippedAny = true
		}
	}
	if !flippedAny {
		t.Error("no hash produced an observable flip")
	}
	if orig.fragID != 0b1000 || orig.level != 2 {
		t.Errorf("original mutated: %+v", orig)
	}
}

func TestFlipBitDescendsIntoInterfacePayloads(t *testing.T) {
	inner := flipStruct{fragID: 5, level: 1, label: "y"}
	msg := flipWrapper{payload: inner}
	changed := false
	for h := uint64(0); h < 64; h++ {
		got, ok := flipBit(msg, splitmix64(h^0xabc))
		if !ok {
			t.Fatalf("h=%d: flipBit failed on wrapper", h)
		}
		fw := got.(flipWrapper)
		if fw.payload.(flipStruct) != inner {
			changed = true
		}
	}
	if !changed {
		t.Error("wrapper payload never mutated")
	}
	if msg.payload.(flipStruct) != inner {
		t.Errorf("original wrapper mutated: %+v", msg)
	}
}

func TestFlipBitHandlesHopelessPayloads(t *testing.T) {
	for _, msg := range []interface{}{nil, "just a string", struct{ S string }{"s"}, (*flipStruct)(nil)} {
		if _, ok := flipBit(msg, 12345); ok {
			t.Errorf("flipBit claimed success on %#v", msg)
		}
	}
}

func TestFlipBitScalarAndPointerMessages(t *testing.T) {
	if got, ok := flipBit(int64(8), 1); !ok || got.(int64) == 8 {
		t.Errorf("scalar flip: got %v ok=%v, want a changed int64", got, ok)
	}
	orig := &flipStruct{fragID: 3}
	got, ok := flipBit(orig, 99)
	if !ok {
		t.Fatal("pointer flip failed")
	}
	if got.(*flipStruct) == orig {
		t.Error("pointer flip returned the original pointer (shared mutation)")
	}
	if orig.fragID != 3 {
		t.Errorf("original mutated through pointer: %+v", orig)
	}
}
