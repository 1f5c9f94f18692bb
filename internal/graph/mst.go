package graph

import (
	"container/heap"
	"fmt"
)

// Kruskal computes the minimum spanning tree (forest, if disconnected)
// using Kruskal's algorithm with the tie-broken weight key, so the
// result is unique even with duplicate weights.
func Kruskal(g *Graph) []Edge {
	edges := g.Edges()
	SortEdgesByKey(edges)
	uf := NewUnionFind(g.N())
	out := make([]Edge, 0, g.N()-1)
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
			if len(out) == g.N()-1 {
				break
			}
		}
	}
	return out
}

// primItem is a heap entry for Prim's algorithm.
type primItem struct {
	key  WeightKey
	edge Edge
}

type primHeap []primItem

func (h primHeap) Len() int            { return len(h) }
func (h primHeap) Less(i, j int) bool  { return h[i].key.Less(h[j].key) }
func (h primHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *primHeap) Push(x interface{}) { *h = append(*h, x.(primItem)) }
func (h *primHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Prim computes the MST of the connected component containing start
// using Prim's algorithm with the same tie-broken key as Kruskal.
// On a connected graph Prim and Kruskal return identical edge sets,
// which the tests exploit as a cross-check.
func Prim(g *Graph, start int) []Edge {
	if start < 0 || start >= g.N() {
		panic(fmt.Sprintf("graph: prim start %d out of range", start))
	}
	inTree := make([]bool, g.N())
	inTree[start] = true
	h := &primHeap{}
	pushPorts := func(v int) {
		for _, p := range g.Ports(v) {
			if !inTree[p.To] {
				e := g.Edge(p.EdgeIdx)
				heap.Push(h, primItem{key: e.Key(), edge: e})
			}
		}
	}
	pushPorts(start)
	out := make([]Edge, 0, g.N()-1)
	for h.Len() > 0 {
		it := heap.Pop(h).(primItem)
		e := it.edge
		var next int
		switch {
		case inTree[e.U] && inTree[e.V]:
			continue
		case inTree[e.U]:
			next = e.V
		default:
			next = e.U
		}
		inTree[next] = true
		out = append(out, e)
		pushPorts(next)
	}
	return out
}

// IsSpanningTree reports whether edges form a spanning tree of g:
// exactly n-1 edges of g, each with its weight in g, that connect all
// nodes without cycles.
func IsSpanningTree(g *Graph, edges []Edge) bool {
	if len(edges) != g.N()-1 {
		return false
	}
	uf := NewUnionFind(g.N())
	for _, e := range edges {
		if e.U < 0 || e.U >= g.N() || e.V < 0 || e.V >= g.N() || !g.hasEdge(e) {
			return false
		}
		if !uf.Union(e.U, e.V) {
			return false
		}
	}
	return uf.Count() == 1
}

// hasEdge reports whether e, in either orientation and with its
// weight, is an edge of g. It scans the ports of e.U.
func (g *Graph) hasEdge(e Edge) bool {
	for _, p := range g.Ports(e.U) {
		if p.To == e.V && p.Weight == e.Weight {
			return true
		}
	}
	return false
}
