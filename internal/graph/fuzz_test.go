package graph

import (
	"encoding/binary"
	"testing"
)

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
// panic — and every accepted graph must satisfy the port-table
// invariants the simulator relies on.
func FuzzNew(f *testing.F) {
	f.Add(1, []byte{})
	f.Add(0, []byte{})
	f.Add(-3, []byte{1, 0, 2, 0, 5, 0})
	f.Add(3, []byte{0, 0, 1, 0, 5, 0, 1, 0, 2, 0, 7, 0})
	f.Add(2, []byte{0, 0, 0, 0, 1, 0})                   // self-loop
	f.Add(2, []byte{0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 0}) // duplicate edge
	f.Add(4, []byte{0, 0, 9, 0, 1, 0})                   // endpoint out of range
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n > 1<<12 {
			n %= 1 << 12 // keep allocations bounded, negatives pass through
		}
		edges := decodeEdges(data)
		g, err := New(n, edges)
		if err != nil {
			return
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
