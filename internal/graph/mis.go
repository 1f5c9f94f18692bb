package graph

// MISViolations counts how far the node set marked by inMIS is from a
// maximal independent set of g. notIndependent is the number of edges
// with both endpoints in the set (any >0 breaks independence);
// notMaximal is the number of nodes that are neither in the set nor
// adjacent to a set member (any >0 breaks maximality). A valid MIS
// returns (0, 0). inMIS is indexed by node index and must have length
// g.N().
func MISViolations(g *Graph, inMIS []bool) (notIndependent, notMaximal int64) {
	for _, e := range g.edges {
		if inMIS[e.U] && inMIS[e.V] {
			notIndependent++
		}
	}
	for v := 0; v < g.N(); v++ {
		if inMIS[v] {
			continue
		}
		covered := false
		for _, p := range g.Ports(v) {
			if inMIS[p.To] {
				covered = true
				break
			}
		}
		if !covered {
			notMaximal++
		}
	}
	return notIndependent, notMaximal
}
