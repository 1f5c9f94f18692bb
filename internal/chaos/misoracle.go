package chaos

import (
	"errors"

	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// MISClassification is the outcome oracle's verdict on one MIS run
// under fault injection.
type MISClassification int

const (
	// CorrectMIS: the run produced a valid maximal independent set.
	CorrectMIS MISClassification = iota
	// NotIndependent: the output set contains at least one edge — a
	// lost or corrupted join announcement let two neighbors both join.
	NotIndependent
	// NotMaximal: some node is neither in the set nor adjacent to it —
	// a spurious join signal (or a missed decline window) made a node
	// retire uncovered.
	NotMaximal
	// MISDeadlock: the run made no progress until the round cap
	// (Config.MaxRounds) killed it.
	MISDeadlock
	// MISAwakeBlown: a node exceeded Config.AwakeBudget awake rounds.
	MISAwakeBlown

	// NumMISClassifications is the number of MIS verdict kinds.
	NumMISClassifications
)

// String returns the verdict's name, the key of a sweep cell's counts.
func (c MISClassification) String() string {
	switch c {
	case CorrectMIS:
		return "correct-mis"
	case NotIndependent:
		return "not-independent"
	case NotMaximal:
		return "not-maximal"
	case MISDeadlock:
		return "deadlock"
	case MISAwakeBlown:
		return "awake-blown"
	default:
		return "unknown"
	}
}

// MISClassifications lists all MIS verdicts in display order.
func MISClassifications() []MISClassification {
	out := make([]MISClassification, NumMISClassifications)
	for i := range out {
		out[i] = MISClassification(i)
	}
	return out
}

// ClassifyMIS is the MIS outcome oracle: given the graph, the (possibly
// nil) membership vector, and the run error, it decides what the run
// amounted to. Independence violations rank above maximality
// violations when both are present.
func ClassifyMIS(g *graph.Graph, inMIS []bool, err error) MISClassification {
	if err != nil {
		switch {
		case errors.Is(err, sim.ErrAwakeBudget):
			return MISAwakeBlown
		default:
			return MISDeadlock
		}
	}
	if len(inMIS) != g.N() {
		return MISDeadlock
	}
	notIndependent, notMaximal := graph.MISViolations(g, inMIS)
	switch {
	case notIndependent > 0:
		return NotIndependent
	case notMaximal > 0:
		return NotMaximal
	default:
		return CorrectMIS
	}
}
