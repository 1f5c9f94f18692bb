package chaos

import (
	"errors"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// Classification is the oracle's verdict on one run.
type Classification int

const (
	// CorrectMST: the run produced the graph's minimum spanning tree.
	CorrectMST Classification = iota
	// WrongTree: the run terminated but its output is not the MST —
	// a non-minimum or structurally invalid tree, or a run aborted by
	// protocol-state corruption (node panic, violated LDT invariant,
	// CONGEST bit-cap violation from a corrupted payload).
	WrongTree
	// Disconnected: the computed edge set does not connect the graph —
	// typically the phase budget ran out with more than one fragment
	// left, e.g. because crashed nodes partitioned the fragment forest.
	Disconnected
	// Deadlock: the run made no progress until the round cap
	// (Config.MaxRounds) killed it.
	Deadlock
	// AwakeBudgetBlown: a node exceeded Config.AwakeBudget awake
	// rounds — the faults forced more wake-ups than the paper's
	// O(log n) awake bound allows.
	AwakeBudgetBlown

	// NumClassifications is the number of verdict kinds.
	NumClassifications
)

// String returns the verdict's name, the key of a sweep cell's counts.
func (c Classification) String() string {
	switch c {
	case CorrectMST:
		return "correct-mst"
	case WrongTree:
		return "wrong-tree"
	case Disconnected:
		return "disconnected"
	case Deadlock:
		return "deadlock"
	case AwakeBudgetBlown:
		return "awake-blown"
	default:
		return "unknown"
	}
}

// Classifications lists all verdicts in display order.
func Classifications() []Classification {
	out := make([]Classification, NumClassifications)
	for i := range out {
		out[i] = Classification(i)
	}
	return out
}

// Classify is the outcome oracle: given the graph, the (possibly
// partial or nil) outcome, and the run error, it decides what the run
// amounted to. The reference is the sequential Kruskal MST; on graphs
// with non-distinct weights any spanning tree of minimum total weight
// counts as correct.
func Classify(g *graph.Graph, out *core.Outcome, err error) Classification {
	if err != nil {
		switch {
		case errors.Is(err, sim.ErrAwakeBudget):
			return AwakeBudgetBlown
		case errors.Is(err, sim.ErrRoundCap):
			return Deadlock
		case errors.Is(err, core.ErrNotConverged):
			return Disconnected
		default:
			return WrongTree
		}
	}
	if out == nil || len(out.MSTEdges) == 0 {
		return Disconnected
	}
	ref := graph.Kruskal(g)
	if graph.SameEdgeSet(out.MSTEdges, ref) {
		return CorrectMST
	}
	if !graph.IsSpanningTree(g, out.MSTEdges) {
		return Disconnected
	}
	if graph.TotalWeight(out.MSTEdges) == graph.TotalWeight(ref) {
		return CorrectMST
	}
	return WrongTree
}
