package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"
)

// The graph-digest table pins what every generator builds: for each
// generator × a few sizes × seeds × weight modes, the sha256 of the
// graph's N, M, IDs, every port table and the edge list, compared
// against testdata/graph_digests.json. A change to the storage or the
// construction that renumbers one port, moves one RNG draw or
// reorders one edge fails here. Regenerate it only for an intended
// change to the generated graphs:
//
//	UPDATE_GOLDEN=1 go test -run TestGraphDigests ./internal/graph

// graphDigestsPath is the committed table.
var graphDigestsPath = filepath.Join("testdata", "graph_digests.json")

// digestWriter feeds little-endian int64s to a hash in 64 KiB blocks.
type digestWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *digestWriter) put(v int64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
	if len(w.buf) >= 64<<10 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// digestGraph returns the sha256 of g's N, M, IDs, every port table in
// node order (its degree, then To, Weight, RevPort and EdgeIdx of each
// port) and the edge list.
func digestGraph(g *Graph) string {
	w := &digestWriter{h: sha256.New()}
	w.put(int64(g.N()))
	w.put(int64(g.M()))
	for v := 0; v < g.N(); v++ {
		w.put(g.ID(v))
	}
	for v := 0; v < g.N(); v++ {
		w.put(int64(g.Degree(v)))
		for _, p := range g.Ports(v) {
			w.put(int64(p.To))
			w.put(p.Weight)
			w.put(int64(p.RevPort))
			w.put(int64(p.EdgeIdx))
		}
	}
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		w.put(int64(e.U))
		w.put(int64(e.V))
		w.put(e.Weight)
	}
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}

// digestCase is one row of the table without its seed and weight mode.
type digestCase struct {
	name  string
	build func(cfg GenConfig) *Graph
}

// graphDigestCases lists every generator at a few sizes. The dense
// cases stay small: a complete graph at n = 4096 has 8.4M edges.
func graphDigestCases() []digestCase {
	var cases []digestCase
	add := func(build func(cfg GenConfig) *Graph, format string, args ...any) {
		cases = append(cases, digestCase{fmt.Sprintf(format, args...), build})
	}
	for _, n := range []int{1, 2, 17, 1000} {
		add(func(cfg GenConfig) *Graph { return Path(n, cfg) }, "path/n=%d", n)
		add(func(cfg GenConfig) *Graph { return Star(n, cfg) }, "star/n=%d", n)
		add(func(cfg GenConfig) *Graph { return BinaryTree(n, cfg) }, "btree/n=%d", n)
	}
	for _, n := range []int{3, 17, 1000} {
		add(func(cfg GenConfig) *Graph { return Cycle(n, cfg) }, "cycle/n=%d", n)
	}
	for _, n := range []int{1, 2, 5, 40} {
		add(func(cfg GenConfig) *Graph { return Complete(n, cfg) }, "complete/n=%d", n)
	}
	for _, rc := range [][2]int{{1, 1}, {1, 50}, {3, 4}, {16, 16}} {
		add(func(cfg GenConfig) *Graph { return Grid(rc[0], rc[1], cfg) }, "grid/%dx%d", rc[0], rc[1])
	}
	for _, sl := range [][2]int{{1, 0}, {5, 3}, {30, 10}} {
		add(func(cfg GenConfig) *Graph { return Caterpillar(sl[0], sl[1], cfg) }, "caterpillar/%dx%d", sl[0], sl[1])
	}
	for _, n := range []int{1, 2, 3, 17, 256, 4096} {
		ms := []int{0, 2 * n, 3 * n}
		if n <= 256 {
			ms = append(ms, n*(n-1)/4, n*n) // n² clamps to the complete graph
		}
		for _, m := range ms {
			add(func(cfg GenConfig) *Graph { return RandomConnected(n, m, cfg) }, "random/n=%d/m=%d", n, m)
		}
	}
	for _, n := range []int{1, 2, 24, 200, 600} {
		for _, radius := range []float64{0, 0.05, 0.2} {
			add(func(cfg GenConfig) *Graph { return RandomGeometric(n, radius, cfg) }, "geometric/n=%d/r=%g", n, radius)
		}
	}
	for _, rc := range [][2]int{{2, 2}, {3, 5}, {8, 64}, {16, 128}} {
		add(func(cfg GenConfig) *Graph {
			grc, err := NewGRC(rc[0], rc[1], cfg)
			if err != nil {
				panic(err)
			}
			return grc.G
		}, "grc/%dx%d", rc[0], rc[1])
	}
	for _, n := range []int{1, 17, 1000} {
		for _, space := range []int64{int64(n), 10 * int64(n), 1 << 40} {
			add(func(cfg GenConfig) *Graph {
				return RandomIDs(RandomConnected(n, 2*n, cfg), space, cfg.Seed+7)
			}, "ids/n=%d/space=%d", n, space)
		}
	}
	return cases
}

// weightModeNames names the weight modes in table keys.
var weightModeNames = map[WeightMode]string{
	WeightsDistinctRandom: "distinct",
	WeightsUnit:           "unit",
	WeightsRandomLarge:    "large",
}

// TestGraphDigests rebuilds every row and compares it with the
// committed table, which RandomConnected(65536, 3n) closes in each
// weight mode.
func TestGraphDigests(t *testing.T) {
	got := map[string]string{}
	for _, mode := range []WeightMode{WeightsDistinctRandom, WeightsUnit, WeightsRandomLarge} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := GenConfig{Seed: seed, Weights: mode}
			for _, c := range graphDigestCases() {
				got[fmt.Sprintf("%s/seed=%d/%s", c.name, seed, weightModeNames[mode])] = digestGraph(c.build(cfg))
			}
		}
		const n = 1 << 16
		got[fmt.Sprintf("random/n=%d/m=%d/seed=1/%s", n, 3*n, weightModeNames[mode])] =
			digestGraph(RandomConnected(n, 3*n, GenConfig{Seed: 1, Weights: mode}))
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(graphDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(graphDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", graphDigestsPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("computed %d rows, %s has %d", len(got), graphDigestsPath, len(want))
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: computed but missing from %s", name, graphDigestsPath)
		} else if d != w {
			t.Errorf("%s: digest drifted (got %.12s, want %.12s)", name, d, w)
		}
	}
}

// TestRandomConnectedAllocations gates the graph build's allocations:
// RandomConnected(65536, 3n) allocates a fixed handful of arrays, not
// one per node or per edge.
func TestRandomConnectedAllocations(t *testing.T) {
	const n = 1 << 16
	allocs := testing.AllocsPerRun(2, func() { RandomConnected(n, 3*n, GenConfig{Seed: 1}) })
	if allocs > 64 {
		t.Errorf("RandomConnected(%d, %d) made %.0f allocations, want at most 64", n, 3*n, allocs)
	}
}

// BenchmarkGraphBuild times RandomConnected(n, 3n), the topology of
// the benchmark's simulation workloads.
func BenchmarkGraphBuild(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RandomConnected(n, 3*n, GenConfig{Seed: int64(i)})
			}
		})
	}
}
