package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"zero nodes", 0, nil},
		{"out of range", 2, []Edge{{U: 0, V: 5}}},
		{"negative", 2, []Edge{{U: -1, V: 0}}},
		{"self loop", 2, []Edge{{U: 1, V: 1}}},
		{"duplicate", 3, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.n, tc.edges); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestPortSymmetry(t *testing.T) {
	g := RandomConnected(40, 120, GenConfig{Seed: 1})
	for v := 0; v < g.N(); v++ {
		for p, pt := range g.Ports(v) {
			back := g.Ports(pt.To)[pt.RevPort]
			if back.To != v || back.RevPort != p {
				t.Fatalf("port symmetry broken at node %d port %d", v, p)
			}
			if back.Weight != pt.Weight || back.EdgeIdx != pt.EdgeIdx {
				t.Fatalf("edge data mismatch at node %d port %d", v, p)
			}
		}
	}
}

func TestDegreeSumIsTwiceEdges(t *testing.T) {
	g := RandomConnected(30, 80, GenConfig{Seed: 2})
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Errorf("degree sum %d != 2m = %d", sum, 2*g.M())
	}
}

func TestSetIDsValidation(t *testing.T) {
	g := Path(3, GenConfig{Seed: 3})
	if err := g.SetIDs([]int64{5, 9, 2}); err != nil {
		t.Fatalf("valid ids rejected: %v", err)
	}
	if g.MaxID() != 9 {
		t.Errorf("MaxID = %d, want 9", g.MaxID())
	}
	if g.IndexOfID(9) != 1 {
		t.Errorf("IndexOfID(9) = %d, want 1", g.IndexOfID(9))
	}
	if g.IndexOfID(42) != -1 {
		t.Errorf("IndexOfID(42) = %d, want -1", g.IndexOfID(42))
	}
	for _, bad := range [][]int64{
		{1, 2},          // wrong length
		{1, 2, 2},       // duplicate
		{0, 1, 2},       // non-positive
		{1, -1, 2},      // negative
		{1, 2, 3, 4, 5}, // too long
	} {
		if err := g.SetIDs(bad); err == nil {
			t.Errorf("SetIDs(%v): want error", bad)
		}
	}
}

func TestWeightKeyTotalOrder(t *testing.T) {
	f := func(a, b WeightKey) bool {
		// Antisymmetry: exactly one of <, >, == holds.
		less, greater := a.Less(b), b.Less(a)
		if a == b {
			return !less && !greater
		}
		return less != greater
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeKeyNormalizesEndpoints(t *testing.T) {
	e1 := Edge{U: 3, V: 7, Weight: 5}
	e2 := Edge{U: 7, V: 3, Weight: 5}
	if e1.Key() != e2.Key() {
		t.Errorf("keys differ: %v vs %v", e1.Key(), e2.Key())
	}
}

func TestGeneratorsConnectedAndDistinct(t *testing.T) {
	gens := map[string]*Graph{
		"path":        Path(17, GenConfig{Seed: 4}),
		"cycle":       Cycle(17, GenConfig{Seed: 4}),
		"star":        Star(17, GenConfig{Seed: 4}),
		"complete":    Complete(9, GenConfig{Seed: 4}),
		"grid":        Grid(4, 5, GenConfig{Seed: 4}),
		"btree":       BinaryTree(17, GenConfig{Seed: 4}),
		"caterpillar": Caterpillar(5, 3, GenConfig{Seed: 4}),
		"random":      RandomConnected(25, 60, GenConfig{Seed: 4}),
		"geometric":   RandomGeometric(30, 0.2, GenConfig{Seed: 4}),
		"largeW":      RandomConnected(20, 40, GenConfig{Seed: 4, Weights: WeightsRandomLarge}),
	}
	for name, g := range gens {
		if !IsConnected(g) {
			t.Errorf("%s: not connected", name)
		}
		if name != "unit" && !g.HasDistinctWeights() {
			t.Errorf("%s: weights not distinct", name)
		}
	}
}

func TestRandomConnectedEdgeCount(t *testing.T) {
	g := RandomConnected(20, 50, GenConfig{Seed: 5})
	if g.M() != 50 {
		t.Errorf("m = %d, want 50", g.M())
	}
	// Request below the tree minimum clamps to n-1.
	g2 := RandomConnected(20, 3, GenConfig{Seed: 5})
	if g2.M() != 19 {
		t.Errorf("m = %d, want 19", g2.M())
	}
	// Request above complete clamps.
	g3 := RandomConnected(5, 100, GenConfig{Seed: 5})
	if g3.M() != 10 {
		t.Errorf("m = %d, want 10", g3.M())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomConnected(30, 90, GenConfig{Seed: 7})
	b := RandomConnected(30, 90, GenConfig{Seed: 7})
	if !SameEdgeSet(a.Edges(), b.Edges()) {
		t.Error("same seed produced different graphs")
	}
	c := RandomConnected(30, 90, GenConfig{Seed: 8})
	if SameEdgeSet(a.Edges(), c.Edges()) {
		t.Error("different seeds produced identical graphs (suspicious)")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	p := Path(10, GenConfig{Seed: 9})
	if d := Diameter(p); d != 9 {
		t.Errorf("path diameter = %d, want 9", d)
	}
	if d := DiameterDoubleSweep(p); d != 9 {
		t.Errorf("double sweep = %d, want 9", d)
	}
	c := Cycle(10, GenConfig{Seed: 9})
	if d := Diameter(c); d != 5 {
		t.Errorf("cycle diameter = %d, want 5", d)
	}
	s := Star(10, GenConfig{Seed: 9})
	if d := Diameter(s); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
	if e := Eccentricity(s, 0); e != 1 {
		t.Errorf("hub eccentricity = %d, want 1", e)
	}
	if got := HopDistance(p, 0, 7); got != 7 {
		t.Errorf("hop distance = %d, want 7", got)
	}
}

func TestMaxDegree(t *testing.T) {
	if d := MaxDegree(Star(8, GenConfig{Seed: 1})); d != 7 {
		t.Errorf("star max degree = %d, want 7", d)
	}
}

func TestKruskalMatchesPrim(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomConnected(40, 100, GenConfig{Seed: seed})
		k, p := Kruskal(g), Prim(g, int(seed)%g.N())
		if !SameEdgeSet(k, p) {
			t.Fatalf("seed %d: kruskal and prim disagree", seed)
		}
		if !IsSpanningTree(g, k) {
			t.Fatalf("seed %d: kruskal output is not a spanning tree", seed)
		}
	}
}

func TestKruskalUnitWeightsUnique(t *testing.T) {
	// With the tie-broken key the MST is unique even with equal
	// weights, so Kruskal == Prim still.
	g := Complete(10, GenConfig{Seed: 10, Weights: WeightsUnit})
	if !SameEdgeSet(Kruskal(g), Prim(g, 3)) {
		t.Error("tie-broken MST not unique")
	}
}

func TestMSTCutProperty(t *testing.T) {
	// Property: for random graphs, the global minimum-weight edge is
	// always in the MST.
	f := func(seed int64) bool {
		g := RandomConnected(15, 40, GenConfig{Seed: seed})
		edges := g.Edges()
		SortEdgesByKey(edges)
		mst := EdgeSet(Kruskal(g))
		e := edges[0]
		_, ok := mst[[2]int{min(e.U, e.V), max(e.U, e.V)}]
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIsSpanningTreeRejects(t *testing.T) {
	g := Cycle(5, GenConfig{Seed: 11})
	edges := g.Edges()
	if IsSpanningTree(g, edges) {
		t.Error("cycle accepted as spanning tree")
	}
	if IsSpanningTree(g, edges[:3]) {
		t.Error("3 edges accepted for n=5")
	}
	// 4 edges forming a cycle + isolated node.
	bad := []Edge{edges[0], edges[1], edges[2], {U: edges[0].U, V: edges[2].V, Weight: 99}}
	if IsSpanningTree(g, bad) {
		t.Error("cyclic subset accepted")
	}
	// A spanning tree of K5, but three of its edges are not in the ring.
	if IsSpanningTree(g, []Edge{{U: 0, V: 2}, {U: 2, V: 4}, {U: 1, V: 3}, {U: 0, V: 1}}) {
		t.Error("tree with edges outside g accepted")
	}
	// The ring's own path 0-1-2-3-4, but one edge with a weight g does
	// not give it.
	path := edges[:4]
	if !IsSpanningTree(g, path) {
		t.Fatal("path of ring edges rejected")
	}
	path = append([]Edge{{U: path[0].V, V: path[0].U, Weight: path[0].Weight + 100}}, path[1:]...)
	if IsSpanningTree(g, path) {
		t.Error("edge with a weight outside g accepted")
	}
}

func TestUnionFindProperties(t *testing.T) {
	uf := NewUnionFind(10)
	if uf.Count() != 10 {
		t.Fatalf("count = %d, want 10", uf.Count())
	}
	if !uf.Union(0, 1) || uf.Union(0, 1) {
		t.Error("union results wrong")
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Error("connectivity wrong")
	}
	if uf.Count() != 9 {
		t.Errorf("count = %d, want 9", uf.Count())
	}
}

func TestUnionFindQuick(t *testing.T) {
	// Property: after any sequence of unions, Connected agrees with a
	// naive component labeling.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 30
		uf := NewUnionFind(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		relabel := func(from, to int) {
			for i := range naive {
				if naive[i] == from {
					naive[i] = to
				}
			}
		}
		for k := 0; k < 40; k++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			uf.Union(a, b)
			relabel(naive[a], naive[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Connected(i, j) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSameEdgeSet(t *testing.T) {
	a := []Edge{{U: 0, V: 1, Weight: 3}, {U: 2, V: 1, Weight: 4}}
	b := []Edge{{U: 1, V: 2, Weight: 4}, {U: 1, V: 0, Weight: 3}}
	if !SameEdgeSet(a, b) {
		t.Error("equal sets reported different")
	}
	c := []Edge{{U: 0, V: 1, Weight: 3}}
	if SameEdgeSet(a, c) {
		t.Error("different sizes reported equal")
	}
	d := []Edge{{U: 0, V: 1, Weight: 9}, {U: 2, V: 1, Weight: 4}}
	if SameEdgeSet(a, d) {
		t.Error("different weights reported equal")
	}
}

func TestTotalWeight(t *testing.T) {
	if w := TotalWeight([]Edge{{Weight: 3}, {Weight: 4}}); w != 7 {
		t.Errorf("total = %d, want 7", w)
	}
}

func TestRandomIDs(t *testing.T) {
	g := Path(10, GenConfig{Seed: 12})
	RandomIDs(g, 1000, 5)
	seen := map[int64]bool{}
	for v := 0; v < g.N(); v++ {
		id := g.ID(v)
		if id < 1 || id > 1000 {
			t.Errorf("id %d out of range", id)
		}
		if seen[id] {
			t.Errorf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestRandomGeometricAlwaysConnected(t *testing.T) {
	// Even with a radius too small to connect naturally, bridging must
	// yield a connected graph.
	g := RandomGeometric(40, 0.05, GenConfig{Seed: 13})
	if !IsConnected(g) {
		t.Error("geometric graph not connected after bridging")
	}
}

// referenceRandomGeometric is RandomGeometric as it was before bridges:
// it joins the globally nearest cross-component pair, lowest (i, j)
// first, rescanning every pair once per bridge (O(n³) when a tiny
// radius leaves about n components).
func referenceRandomGeometric(n int, radius float64, cfg GenConfig) *Graph {
	r := cfg.rng()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	dist2 := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return dx*dx + dy*dy
	}
	var edges []Edge
	rad2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist2(i, j) <= rad2 {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	uf := NewUnionFind(n)
	for _, e := range edges {
		uf.Union(e.U, e.V)
	}
	edges = append(edges, referenceBridges(uf, dist2)...)
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// referenceBridges is the bridging loop bridges replaced.
func referenceBridges(uf *UnionFind, dist2 func(i, j int) float64) []Edge {
	n := len(uf.parent)
	var edges []Edge
	for uf.Count() > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if uf.Connected(i, j) {
					continue
				}
				if d := dist2(i, j); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		edges = append(edges, Edge{U: bi, V: bj})
		uf.Union(bi, bj)
	}
	return edges
}

// TestRandomGeometricMatchesReference: the Prim-based bridging builds
// the graph the per-bridge rescan built, edge for edge and weight for
// weight, over 280 (seed, n, radius) cells in every weight mode — from
// radius 0 (n components) through 1e-4 and middle radii to radii past
// √2 (one component, no bridges).
func TestRandomGeometricMatchesReference(t *testing.T) {
	for _, mode := range []WeightMode{WeightsDistinctRandom, WeightsUnit, WeightsRandomLarge} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, n := range []int{1, 2, 3, 7, 24, 48, 97, 128} {
				for _, radius := range []float64{0, 1e-4, 0.05, 0.12, 0.3, math.Sqrt2, 2} {
					cfg := GenConfig{Seed: seed, Weights: mode}
					got, want := RandomGeometric(n, radius, cfg).Edges(), referenceRandomGeometric(n, radius, cfg).Edges()
					if !slices.Equal(got, want) {
						t.Fatalf("mode %d seed %d n %d radius %g: edges differ from the reference\n got %v\nwant %v",
							mode, seed, n, radius, got, want)
					}
				}
			}
		}
	}
}

// TestBridgesBreakTiesLikeReference: on lattice points, where many
// pairs share a distance and many points coincide, bridges joins the
// same pairs in the same order as the rescan.
func TestBridgesBreakTiesLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		side := 1 + rng.Intn(6)
		xs, ys := make([]int, n), make([]int, n)
		for i := range xs {
			xs[i], ys[i] = rng.Intn(side), rng.Intn(side)
		}
		dist2 := func(i, j int) float64 {
			dx, dy := float64(xs[i]-xs[j]), float64(ys[i]-ys[j])
			return dx*dx + dy*dy
		}
		a, b := NewUnionFind(n), NewUnionFind(n)
		for k := rng.Intn(n); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			a.Union(i, j)
			b.Union(i, j)
		}
		var got []Edge
		if a.Count() > 1 {
			got = bridges(a, dist2, func() bool { return false })
		}
		if want := referenceBridges(b, dist2); !slices.Equal(got, want) {
			t.Fatalf("trial %d: bridges %v, reference %v", trial, got, want)
		}
	}
}
