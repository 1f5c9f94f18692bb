package problem

import (
	"errors"
	"runtime"
	"testing"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
	"sleepmst/internal/transport"
)

// coreOptions is the minimal run configuration the unit tests use.
func coreOptions(seed int64) core.Options { return core.Options{Seed: seed} }

// misTopologies is the validity-test topology axis: structured graphs
// stress degenerate degrees (path ends, star hub, clique), the random
// families stress the sparsify stage's probabilistic thinning.
var misTopologies = []struct {
	name  string
	build func(seed int64) *graph.Graph
}{
	{"path", func(s int64) *graph.Graph { return graph.Path(33, graph.GenConfig{Seed: s}) }},
	{"cycle", func(s int64) *graph.Graph { return graph.Cycle(40, graph.GenConfig{Seed: s}) }},
	{"star", func(s int64) *graph.Graph { return graph.Star(25, graph.GenConfig{Seed: s}) }},
	{"complete", func(s int64) *graph.Graph { return graph.Complete(17, graph.GenConfig{Seed: s}) }},
	{"grid", func(s int64) *graph.Graph { return graph.Grid(6, 7, graph.GenConfig{Seed: s}) }},
	{"tree", func(s int64) *graph.Graph { return graph.BinaryTree(31, graph.GenConfig{Seed: s}) }},
	{"random", func(s int64) *graph.Graph { return graph.RandomConnected(48, 144, graph.GenConfig{Seed: s}) }},
	{"geometric", func(s int64) *graph.Graph { return graph.RandomGeometric(40, 0.35, graph.GenConfig{Seed: s}) }},
}

// TestRunMISValidAcrossTopologies: on every topology and several run
// seeds, the output must be a valid MIS (deterministically — only the
// awake bound is probabilistic) and stay within the calibrated awake
// envelope.
func TestRunMISValidAcrossTopologies(t *testing.T) {
	for _, tc := range misTopologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(11)
			budget, _ := MISAwakeBudget(g.N())
			for seed := int64(1); seed <= 5; seed++ {
				r, err := RunMIS(g, coreOptions(seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if ni, nm := graph.MISViolations(g, r.InMIS); ni != 0 || nm != 0 {
					t.Fatalf("seed %d: invalid MIS: %d in-set edges, %d uncovered", seed, ni, nm)
				}
				if got := r.Sim.MaxAwake(); got > budget {
					t.Errorf("seed %d: max awake %d exceeds budget %d", seed, got, budget)
				}
			}
		})
	}
}

// TestRunMISAllocPerNode bounds what one run allocates per node. Each
// node draws a few random values, so a per-node generator that builds
// math/rand's 607-word table (about 5 KB) would alone exceed the bound.
func TestRunMISAllocPerNode(t *testing.T) {
	const n, maxBytesPerNode = 8192, 3 << 10
	g := graph.RandomConnected(n, 3*n, graph.GenConfig{Seed: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := RunMIS(g, coreOptions(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ni, nm := graph.MISViolations(g, r.InMIS); ni != 0 || nm != 0 {
		t.Fatalf("invalid MIS: %d in-set edges, %d uncovered", ni, nm)
	}
	perNode := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("RunMIS allocated %d B per node at n=%d", perNode, n)
	if perNode > maxBytesPerNode {
		t.Errorf("RunMIS allocated %d B per node, want at most %d", perNode, maxBytesPerNode)
	}
}

// TestRunMISDisconnected: unlike the MST runners, MIS must accept a
// disconnected graph — each component gets its own maximal set.
func TestRunMISDisconnected(t *testing.T) {
	// Two disjoint triangles.
	g := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 2}, {U: 0, V: 2, Weight: 3},
		{U: 3, V: 4, Weight: 4}, {U: 4, V: 5, Weight: 5}, {U: 3, V: 5, Weight: 6},
	})
	r, err := RunMIS(g, coreOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if ni, nm := graph.MISViolations(g, r.InMIS); ni != 0 || nm != 0 {
		t.Fatalf("invalid MIS on disconnected graph: %d in-set edges, %d uncovered", ni, nm)
	}
	size := 0
	for _, in := range r.InMIS {
		if in {
			size++
		}
	}
	if size != 2 {
		t.Errorf("two triangles admit exactly one MIS member each, got %d", size)
	}
}

// TestRunMISEdgeGraphs pins the degenerate inputs: a single node is
// its own MIS, and a nil graph is an error, not a panic.
func TestRunMISEdgeGraphs(t *testing.T) {
	r, err := RunMIS(graph.MustNew(1, nil), coreOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.InMIS) != 1 || !r.InMIS[0] {
		t.Errorf("singleton graph: want InMIS=[true], got %v", r.InMIS)
	}
	if _, err := RunMIS(nil, coreOptions(1)); err == nil {
		t.Error("nil graph: want error, got nil")
	}
}

// TestRunMISRespectsAwakeBudgetOption: the simulator's hard awake
// budget must cut an MIS run off with ErrAwakeBudget like any other
// resident.
func TestRunMISRespectsAwakeBudgetOption(t *testing.T) {
	g := graph.RandomConnected(32, 96, graph.GenConfig{Seed: 4})
	opts := coreOptions(1)
	opts.AwakeBudget = 1
	_, err := RunMIS(g, opts)
	if !errors.Is(err, sim.ErrAwakeBudget) {
		t.Fatalf("want ErrAwakeBudget, got %v", err)
	}
}

// TestMISAwakeBudgetValues pins the calibrated envelope at the matrix
// sizes (BudgetCMIS=5; measured worst awake was 8/10/11/13) and the
// small-n clamp.
func TestMISAwakeBudgetValues(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int64
	}{{16, 15}, {64, 18}, {256, 20}, {1024, 22}, {1, 10}, {4, 10}} {
		got, ok := MISAwakeBudget(tc.n)
		if !ok || got != tc.want {
			t.Errorf("MISAwakeBudget(%d) = %d,%v; want %d,true", tc.n, got, ok, tc.want)
		}
	}
}

// TestMISPhases pins the sparsify shape: P is the smallest count with
// 2^(P-1) >= L plus one margin phase, and tiny n degrades gracefully.
func TestMISPhases(t *testing.T) {
	for _, tc := range []struct {
		n, wantL, wantP int
	}{{1, 1, 1}, {2, 1, 1}, {16, 4, 3}, {64, 6, 4}, {256, 8, 4}, {1024, 10, 5}} {
		L, P := misPhases(tc.n)
		if L != tc.wantL || P != tc.wantP {
			t.Errorf("misPhases(%d) = (%d, %d); want (%d, %d)", tc.n, L, P, tc.wantL, tc.wantP)
		}
	}
}

// TestMISMessageBits: every MIS message kind must report a positive
// CONGEST-sized bit count and a stable codec label (the per-label
// metrics key space).
func TestMISMessageBits(t *testing.T) {
	msgs := []struct {
		m    sim.Sizer
		kind string
	}{
		{misSampleMsg{id: 7, rank: 3, candidate: true}, "mis-sample"},
		{misJoinMsg{}, "mis-join"},
		{misSyncMsg{id: 7}, "mis-sync"},
		{misDecideMsg{join: true}, "mis-decide"},
	}
	for _, tc := range msgs {
		if b := tc.m.Bits(); b <= 0 || b > 128 {
			t.Errorf("%T.Bits() = %d, want a positive CONGEST-word size", tc.m, b)
		}
		if c := transport.CodecOf(tc.m); c == nil || c.Label != tc.kind {
			t.Errorf("%T: want label %q", tc.m, tc.kind)
		}
	}
}
