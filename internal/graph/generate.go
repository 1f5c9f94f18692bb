package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// WeightMode selects how generators assign edge weights.
type WeightMode int

const (
	// WeightsDistinctRandom assigns a random permutation of 1..m
	// (distinct, so the MST is unique). This is the default.
	WeightsDistinctRandom WeightMode = iota
	// WeightsUnit assigns weight 1 to every edge (tests the
	// tie-breaking path).
	WeightsUnit
	// WeightsRandomLarge assigns distinct random weights drawn from a
	// large space, mimicking the poly(n) weight space of Theorem 3.
	WeightsRandomLarge
)

// GenConfig parameterizes the random generators.
type GenConfig struct {
	Seed    int64
	Weights WeightMode
	// Cancel, if non-nil, stops RandomGeometric's O(n²) pair scans
	// once it is closed; the build then returns nil. The other
	// generators run in O(n + m) time and ignore it.
	Cancel <-chan struct{}
}

func (c GenConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// canceled polls Cancel without blocking.
func (c GenConfig) canceled() bool {
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// assignWeights overwrites edge weights per the configured mode.
func assignWeights(edges []Edge, cfg GenConfig) {
	// Derive a distinct stream from the topology seed so weights and
	// structure are decorrelated but still fully deterministic.
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x5E3779B97F4A7C15))
	switch cfg.Weights {
	case WeightsUnit:
		for i := range edges {
			edges[i].Weight = 1
		}
	case WeightsRandomLarge:
		space := int64(len(edges)) * int64(len(edges)) * 1024
		if space < 1<<20 {
			space = 1 << 20
		}
		seen := newKeySet(len(edges))
		for i := range edges {
			w := 1 + r.Int63n(space)
			for !seen.add(uint64(w)) {
				w = 1 + r.Int63n(space)
			}
			edges[i].Weight = w
		}
	default: // WeightsDistinctRandom
		perm := r.Perm(len(edges))
		for i := range edges {
			edges[i].Weight = int64(perm[i] + 1)
		}
	}
}

// Path returns the path graph 0-1-...-n-1.
func Path(n int, cfg GenConfig) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{U: i, V: i + 1})
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// Cycle returns the ring graph on n >= 3 nodes; the topology of the
// Theorem 3 lower bound.
func Cycle(n int, cfg GenConfig) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{U: i, V: (i + 1) % n})
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// Star returns the star graph with node 0 as the hub.
func Star(n int, cfg GenConfig) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: 0, V: i})
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int, cfg GenConfig) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j})
		}
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int, cfg GenConfig) *Graph {
	n := rows * cols
	at := func(r, c int) int { return r*cols + c }
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: at(r, c), V: at(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: at(r, c), V: at(r+1, c)})
			}
		}
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// BinaryTree returns the complete-ish binary tree on n nodes where
// node i has children 2i+1 and 2i+2.
func BinaryTree(n int, cfg GenConfig) *Graph {
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: (i - 1) / 2, V: i})
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// Caterpillar returns a path of length spineLen with legsPerNode leaf
// nodes hanging off each spine node — a high-degree tree stressing the
// LDT procedures.
func Caterpillar(spineLen, legsPerNode int, cfg GenConfig) *Graph {
	n := spineLen * (1 + legsPerNode)
	var edges []Edge
	for i := 0; i+1 < spineLen; i++ {
		edges = append(edges, Edge{U: i, V: i + 1})
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legsPerNode; l++ {
			edges = append(edges, Edge{U: i, V: next})
			next++
		}
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// RandomConnected returns a connected random graph with n nodes and
// approximately m edges (at least n-1): a uniform random spanning tree
// backbone (random attachment) plus random extra edges.
func RandomConnected(n, m int, cfg GenConfig) *Graph {
	if m < n-1 {
		m = n - 1
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	r := cfg.rng()
	perm := r.Perm(n) // random labeling so the tree shape is unbiased
	edges := make([]Edge, 0, m)
	seen := newKeySet(m) // pairs u < v packed as u<<32 | v
	add := func(u, v int) {
		if u != v && seen.add(uint64(min(u, v))<<32|uint64(max(u, v))) {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	for i := 1; i < n; i++ {
		add(perm[i], perm[r.Intn(i)])
	}
	for len(edges) < m {
		add(r.Intn(n), r.Intn(n))
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// RandomGeometric places n nodes uniformly in the unit square and
// connects pairs within the given radius; if the result is
// disconnected, nearest-component bridges are added so the returned
// graph is always connected. It models the ad-hoc wireless/sensor
// deployments that motivate the sleeping model. It returns nil if
// cfg.Cancel closes first; the pair scans poll it once per node.
func RandomGeometric(n int, radius float64, cfg GenConfig) *Graph {
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
		if cfg.canceled() {
			return nil
		}
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
	if uf.Count() > 1 {
		joins := bridges(uf, dist2, cfg.canceled)
		if joins == nil {
			return nil
		}
		edges = append(edges, joins...)
	}
	assignWeights(edges, cfg)
	return MustNew(n, edges)
}

// pairKey ranks a pair i < j for bridges: pairs inside a component
// below pairs across two, then by (dist², i, j).
type pairKey struct {
	cross bool
	d     float64
	i, j  int
}

func (a pairKey) less(b pairKey) bool {
	if a.cross != b.cross {
		return b.cross
	}
	return a.d < b.d || a.d == b.d && (a.i < b.i || a.i == b.i && a.j < b.j)
}

// bridges returns the edges that join the components of uf when the
// nearest cross-component pair, lowest (i, j) first, is joined until
// one component remains, in joining order. That is Kruskal over the
// cross-component pairs by pairKey, so they are the cross-component
// edges of the unique minimum spanning tree of all pairs by pairKey,
// which one dense Prim pass finds in O(n²) time and O(n) memory. It
// returns nil once canceled reports true; it polls it once per node.
func bridges(uf *UnionFind, dist2 func(i, j int) float64, canceled func() bool) []Edge {
	n := len(uf.parent)
	key := func(u, v int) pairKey {
		return pairKey{cross: !uf.Connected(u, v), d: dist2(u, v), i: min(u, v), j: max(u, v)}
	}
	inTree := make([]bool, n)
	best := make([]pairKey, n) // the lightest pair joining v to the tree
	for v := 1; v < n; v++ {
		best[v] = key(0, v)
	}
	inTree[0] = true
	var edges []Edge
	for added := 1; added < n; added++ {
		if canceled() {
			return nil
		}
		u := -1
		for v := range best {
			if !inTree[v] && (u < 0 || best[v].less(best[u])) {
				u = v
			}
		}
		inTree[u] = true
		if best[u].cross {
			edges = append(edges, Edge{U: best[u].i, V: best[u].j})
		}
		for v := range best {
			if k := key(u, v); !inTree[v] && k.less(best[v]) {
				best[v] = k
			}
		}
	}
	sort.Slice(edges, func(x, y int) bool { return key(edges[x].U, edges[x].V).less(key(edges[y].U, edges[y].V)) })
	return edges
}

// RandomIDs replaces node IDs with distinct random values in [1, space],
// modeling the paper's assumption that IDs come from a range [1, N]
// with N possibly much larger than n. It returns the graph for
// chaining.
func RandomIDs(g *Graph, space int64, seed int64) *Graph {
	if space < int64(g.N()) {
		panic(fmt.Sprintf("graph: id space %d smaller than n=%d", space, g.N()))
	}
	r := rand.New(rand.NewSource(seed))
	ids := make([]int64, g.N())
	seen := newKeySet(g.N())
	for i := range ids {
		id := 1 + r.Int63n(space)
		for !seen.add(uint64(id)) {
			id = 1 + r.Int63n(space)
		}
		ids[i] = id
	}
	if err := g.SetIDs(ids); err != nil {
		panic(err)
	}
	return g
}
