package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// referenceNew is New as it was before the flat port array: a map of
// seen pairs, and per-node port tables grown by append, edge by edge.
// It returns the port tables and the edge list.
func referenceNew(n int, edges []Edge) ([][]Port, []Edge, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("graph: n must be positive, got %d", n)
	}
	adj := make([][]Port, n)
	var out []Edge
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		if e.U == e.V {
			return nil, nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		k := [2]int{min(e.U, e.V), max(e.U, e.V)}
		if seen[k] {
			return nil, nil, fmt.Errorf("graph: duplicate edge %d-%d", k[0], k[1])
		}
		seen[k] = true
		idx := len(out)
		out = append(out, e)
		pu := Port{To: e.V, Weight: e.Weight, RevPort: len(adj[e.V]), EdgeIdx: idx}
		pv := Port{To: e.U, Weight: e.Weight, RevPort: len(adj[e.U]), EdgeIdx: idx}
		adj[e.U] = append(adj[e.U], pu)
		adj[e.V] = append(adj[e.V], pv)
	}
	return adj, out, nil
}

// decodeEdges turns raw fuzz bytes into an edge list: 6 bytes per
// edge (two endpoints and a weight as little-endian int16s), so the
// fuzzer can reach out-of-range endpoints, self-loops, duplicates,
// and negative weights.
func decodeEdges(data []byte) []Edge {
	edges := make([]Edge, 0, len(data)/6)
	for len(data) >= 6 {
		edges = append(edges, Edge{
			U:      int(int16(binary.LittleEndian.Uint16(data[0:2]))),
			V:      int(int16(binary.LittleEndian.Uint16(data[2:4]))),
			Weight: int64(int16(binary.LittleEndian.Uint16(data[4:6]))),
		})
		data = data[6:]
	}
	return edges
}

// FuzzNew feeds arbitrary node counts and malformed edge lists to the
// graph constructor: it must reject bad input with an error — never a
// panic — with referenceNew's text, and every accepted graph must be
// referenceNew's graph, port for port, and satisfy the port-table
// invariants the simulator relies on.
func FuzzNew(f *testing.F) {
	f.Add(1, []byte{})
	f.Add(0, []byte{})
	f.Add(-3, []byte{1, 0, 2, 0, 5, 0})
	f.Add(3, []byte{0, 0, 1, 0, 5, 0, 1, 0, 2, 0, 7, 0})
	f.Add(2, []byte{0, 0, 0, 0, 1, 0})                   // self-loop
	f.Add(2, []byte{0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 0}) // duplicate edge
	f.Add(4, []byte{0, 0, 9, 0, 1, 0})                   // endpoint out of range
	// Two faults: the first one in edge order names the error.
	f.Add(4, []byte{0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 0, 9, 0, 3, 0})                   // duplicate, then out of range
	f.Add(4, []byte{0, 0, 9, 0, 3, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 0})                   // out of range, then duplicate
	f.Add(4, []byte{2, 0, 3, 0, 1, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1, 0, 3, 0})                   // duplicate, then self-loop
	f.Add(5, []byte{0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 2, 0, 3, 0, 2, 0, 3, 0, 1, 0, 0, 0, 4, 0}) // two duplicates
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n > 1<<12 {
			n %= 1 << 12 // keep allocations bounded, negatives pass through
		}
		edges := decodeEdges(data)
		g, err := New(n, edges)
		adj, refEdges, refErr := referenceNew(n, edges)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("New error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		for v := range adj {
			if ports := g.Ports(v); !slices.Equal(ports, adj[v]) || cap(ports) != len(ports) {
				t.Fatalf("node %d: ports %v (cap %d), reference %v", v, ports, cap(ports), adj[v])
			}
		}
		if !slices.Equal(g.Edges(), refEdges) {
			t.Fatalf("edges %v, reference %v", g.Edges(), refEdges)
		}
		for i := range edges {
			edges[i].Weight++ // New copied the edges, so g must not see this
		}
		if !slices.Equal(g.Edges(), refEdges) {
			t.Fatal("the graph shares the caller's edge slice")
		}
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		if g.M() != len(edges) {
			t.Fatalf("M() = %d, want %d accepted edges", g.M(), len(edges))
		}
		// Port reciprocity: port p of v leads to a node whose RevPort
		// leads straight back, with the same weight and edge index.
		degSum := 0
		for v := 0; v < g.N(); v++ {
			degSum += g.Degree(v)
			for p, pt := range g.Ports(v) {
				if pt.To < 0 || pt.To >= g.N() || pt.To == v {
					t.Fatalf("node %d port %d: bad neighbor %d", v, p, pt.To)
				}
				back := g.Ports(pt.To)[pt.RevPort]
				if back.To != v || back.RevPort != p {
					t.Fatalf("node %d port %d: reciprocity broken (%+v -> %+v)", v, p, pt, back)
				}
				if back.Weight != pt.Weight || back.EdgeIdx != pt.EdgeIdx {
					t.Fatalf("node %d port %d: weight/edge mismatch across ports", v, p)
				}
				e := g.Edge(pt.EdgeIdx)
				if e.Weight != pt.Weight {
					t.Fatalf("node %d port %d: port weight %d != edge weight %d", v, p, pt.Weight, e.Weight)
				}
			}
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d != 2M %d", degSum, 2*g.M())
		}
		if got := g.MaxID(); got != int64(n) {
			t.Fatalf("default MaxID = %d, want %d", got, n)
		}
	})
}
