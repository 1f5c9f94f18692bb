// Package graph provides weighted undirected graphs with CONGEST-style
// port numbering, generators for the topologies used in the paper's
// experiments (including the lower-bound family G_rc), reference MST
// algorithms (Kruskal, Prim), and structural analysis helpers.
//
// All graphs are simple (no self-loops, no multi-edges) and connected
// unless stated otherwise. Edge weights are int64 and the generators
// assign distinct weights so that the MST is unique; WeightKey provides
// a total order that breaks ties deterministically for non-distinct
// inputs, matching the paper's remark that results generalize readily.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected weighted edge between node indices U and V.
type Edge struct {
	U, V   int
	Weight int64
}

// Key returns the tie-breaking total-order key of the edge.
func (e Edge) Key() WeightKey {
	u, v := e.U, e.V
	if u > v {
		u, v = v, u
	}
	return WeightKey{W: e.Weight, A: int64(u), B: int64(v)}
}

// WeightKey is a lexicographic (weight, min endpoint, max endpoint) key.
// With distinct weights the endpoints never matter; with duplicate
// weights the key still induces a unique MST.
type WeightKey struct {
	W, A, B int64
}

// Less reports whether k orders strictly before o.
func (k WeightKey) Less(o WeightKey) bool {
	if k.W != o.W {
		return k.W < o.W
	}
	if k.A != o.A {
		return k.A < o.A
	}
	return k.B < o.B
}

// MaxWeightKey is a key greater than every key produced by Edge.Key.
var MaxWeightKey = WeightKey{W: 1<<62 - 1, A: 1<<62 - 1, B: 1<<62 - 1}

// Port describes one endpoint slot of an edge as seen from a node.
// A node with degree d has ports 0..d-1; port p connects to node To,
// which sees the same edge through its port RevPort.
type Port struct {
	To      int   // neighbor node index
	Weight  int64 // edge weight
	RevPort int   // port number of this edge at the neighbor
	EdgeIdx int   // index into Graph.Edges
}

// Graph is an undirected weighted graph over nodes 0..N()-1 with
// per-node port tables. Node identifiers (IDs) are distinct and
// strictly positive; by default node i has ID i+1 (so IDs lie in
// [1, n], the range the deterministic algorithm assumes).
//
// The port tables of all nodes share one flat array: node v's ports
// are ports[off[v]:off[v+1]], and port p of v is v's p-th incident
// edge in edge order.
type Graph struct {
	ports []Port
	off   []int
	edges []Edge
	ids   []int64
}

// New builds a graph with n nodes and the given edges, which it
// copies. It returns an error for invalid endpoints, self-loops or
// duplicates, naming the first offending edge in edge order. It counts
// degrees, takes prefix sums and fills the ports in edge order, then
// finds duplicates with one stamped scan over the ports.
func New(n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: n must be positive, got %d", n)
	}
	edges = append(make([]Edge, 0, len(edges)), edges...)
	var bad error // the first out-of-range or self-loop edge
	off := make([]int, n+1)
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			bad = fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		} else if e.U == e.V {
			bad = fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		if bad != nil {
			edges = edges[:i] // a duplicate before it names the error
			break
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	ports := make([]Port, off[n])
	next := make([]int, n) // the next free port of each node
	copy(next, off)
	for i, e := range edges {
		pu, pv := next[e.U], next[e.V]
		ports[pu] = Port{To: e.V, Weight: e.Weight, RevPort: pv - off[e.V], EdgeIdx: i}
		ports[pv] = Port{To: e.U, Weight: e.Weight, RevPort: pu - off[e.U], EdgeIdx: i}
		next[e.U], next[e.V] = pu+1, pv+1
	}
	// A port of v to a neighbour an earlier port of v reaches repeats an
	// earlier edge; the smallest such edge index is the first duplicate
	// in edge order.
	stamp, dup := next, len(edges)
	for v := range stamp {
		stamp[v] = -1
	}
	for v := 0; v < n; v++ {
		for _, p := range ports[off[v]:off[v+1]] {
			if stamp[p.To] == v {
				dup = min(dup, p.EdgeIdx)
			}
			stamp[p.To] = v
		}
	}
	if dup < len(edges) {
		e := edges[dup]
		return nil, fmt.Errorf("graph: duplicate edge %d-%d", min(e.U, e.V), max(e.U, e.V))
	}
	if bad != nil {
		return nil, bad
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	return &Graph{ports: ports, off: off, edges: edges, ids: ids}, nil
}

// MustNew is New but panics on error; intended for tests and generators
// that construct edges programmatically.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// Ports returns the port table of node v. The returned slice must not
// be modified; its capacity ends at its length, so an append copies.
func (g *Graph) Ports(v int) []Port { return g.ports[g.off[v]:g.off[v+1]:g.off[v+1]] }

// PortOffsets returns where each node's ports start in the graph's
// one port array: node v's ports are entries off[v] to off[v+1]-1, so
// a per-port table laid out on these offsets holds port p of v at
// off[v]+p, and off[N()] counts all ports. The slice must not be
// modified; its capacity ends at its length.
func (g *Graph) PortOffsets() []int { return g.off[:len(g.off):len(g.off)] }

// ID returns the identifier of node v.
func (g *Graph) ID(v int) int64 { return g.ids[v] }

// MaxID returns the largest node identifier (the paper's N).
func (g *Graph) MaxID() int64 {
	var m int64
	for _, id := range g.ids {
		if id > m {
			m = id
		}
	}
	return m
}

// SetIDs overwrites the node identifiers. IDs must be distinct and
// strictly positive.
func (g *Graph) SetIDs(ids []int64) error {
	if len(ids) != g.N() {
		return fmt.Errorf("graph: got %d ids for %d nodes", len(ids), g.N())
	}
	seen := newKeySet(len(ids))
	for _, id := range ids {
		if id <= 0 {
			return fmt.Errorf("graph: id %d is not strictly positive", id)
		}
		if !seen.add(uint64(id)) {
			return fmt.Errorf("graph: duplicate id %d", id)
		}
	}
	copy(g.ids, ids)
	return nil
}

// IndexOfID returns the node index holding the given ID, or -1.
func (g *Graph) IndexOfID(id int64) int {
	for i, x := range g.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// HasDistinctWeights reports whether all edge weights are distinct.
func (g *Graph) HasDistinctWeights() bool {
	seen := make(map[int64]bool, len(g.edges))
	for _, e := range g.edges {
		if seen[e.Weight] {
			return false
		}
		seen[e.Weight] = true
	}
	return true
}

// keySet is an open-addressing set of nonzero uint64 keys, sized for
// a known number of them: at most half its slots fill, so a probe
// ends quickly at an empty (zero) slot.
type keySet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
}

// newKeySet returns a set with room for n keys.
func newKeySet(n int) keySet {
	shift := uint(61) // at least 8 slots
	for 1<<(64-shift) < 2*n {
		shift--
	}
	return keySet{slots: make([]uint64, 1<<(64-shift)), shift: shift}
}

// add inserts the nonzero key k and reports whether it was absent.
func (s keySet) add(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// TotalWeight sums the weights of the given edges.
func TotalWeight(edges []Edge) int64 {
	var s int64
	for _, e := range edges {
		s += e.Weight
	}
	return s
}

// SortEdgesByKey sorts edges in place by their tie-broken weight key.
func SortEdgesByKey(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool { return edges[i].Key().Less(edges[j].Key()) })
}

// EdgeSet converts an edge list into a canonical set representation
// keyed by (min endpoint, max endpoint), useful for comparing MSTs.
func EdgeSet(edges []Edge) map[[2]int]int64 {
	s := make(map[[2]int]int64, len(edges))
	for _, e := range edges {
		s[[2]int{min(e.U, e.V), max(e.U, e.V)}] = e.Weight
	}
	return s
}

// SameEdgeSet reports whether two edge lists describe the same set of
// undirected edges.
func SameEdgeSet(a, b []Edge) bool {
	sa, sb := EdgeSet(a), EdgeSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for k, w := range sa {
		if w2, ok := sb[k]; !ok || w2 != w {
			return false
		}
	}
	return true
}
