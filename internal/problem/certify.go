package problem

import (
	"errors"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// Certified is one certified run: the problem's result, the
// conformance verdict over the run's trace, and that trace in
// canonical order, for a JSONL render to reuse
// (trace.WriteEventsJSONL, trace.AppendEventsJSONL) instead of
// ordering the recorder's events a second time.
type Certified struct {
	// Result is the run's output; nil when the run failed.
	Result *Result
	// Verdict is the invariant catalog over the trace, followed by the
	// problem's oracle (ConformCheck) when the run succeeded.
	Verdict *conform.Verdict
	// Meta is the trace's run-level header.
	Meta trace.Meta
	// Events is the trace in canonical order.
	Events []trace.Event
}

// Certify runs p on g with the recorder in opts.Trace, which must be
// set, orders the recorded trace once, and checks it: the strict
// invariant catalog with p's awake envelope, then p.ConformCheck if
// the run returned no error. A run that failed for any reason other
// than cancellation is still checked, without the oracle, and its
// error is returned beside the verdict. A canceled run
// (sim.ErrCanceled) returns the error alone: its trace is neither
// ordered nor checked, so a deadline answer costs nothing more.
func Certify(p Problem, g *graph.Graph, opts core.Options) (Certified, error) {
	// Take what the check needs from opts before the run, so that opts
	// is dead once the run returns and the recorder's rings are garbage
	// while Events sorts and the catalog runs. Reading opts after the
	// run kept them live through both, which raised the peak heap of a
	// two-worker service answering traced requests by about 40%.
	rec, info := opts.Trace, conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: opts.Seed, Budget: p.Budget}
	r, err := p.Run(g, opts)
	if errors.Is(err, sim.ErrCanceled) {
		return Certified{}, err
	}
	c := Certified{Result: r, Meta: rec.Meta(), Events: rec.Events()}
	c.Verdict = conform.CheckTrace(c.Meta, c.Events, info)
	if err == nil {
		c.Verdict.Append(p.ConformCheck(g, r))
	}
	return c, err
}
