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
// conformance verdict over the run's whole trace, and that trace's
// header.
type Certified struct {
	// Result is the run's output; nil when the run failed.
	Result *Result
	// Verdict is the invariant catalog over the trace, followed by the
	// problem's oracle (ConformCheck) when the run succeeded.
	Verdict *conform.Verdict
	// Meta is the header of the run's whole trace, which drops nothing.
	Meta trace.Meta
}

// Certify runs p on g and checks its trace as the run goes: a
// trace.Orderer releases each passed round in canonical order into
// the strict invariant catalog with p's awake envelope (conform.Fold)
// and, when jsonl is non-nil, into that JSONL render, which Certify
// begins and ends. p.ConformCheck is appended if the run returned no
// error. A run that failed for any reason other than cancellation is
// still checked, without the oracle, and its error is returned beside
// the verdict. A canceled run (sim.ErrCanceled) returns the error
// alone. A sink in opts.Trace, such as a *trace.Recorder, receives the
// run's events too.
func Certify(p Problem, g *graph.Graph, opts core.Options, jsonl *trace.JSONL) (Certified, error) {
	fold := conform.NewFold(conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: opts.Seed, Budget: p.Budget})
	release := fold.Round
	if jsonl != nil {
		jsonl.Begin(g.N())
		release = func(events []trace.Event) {
			fold.Round(events)
			jsonl.Round(events)
		}
	}
	ord := trace.NewOrderer(release)
	// A clean round reports at most one awake event per node and a send
	// and a delivery or loss per port; its release adds the round's node
	// events, one sleep per node, to the same buffer.
	ord.Reserve(2*g.N() + 4*g.M())
	if opts.Trace != nil {
		opts.Trace = trace.Tee(opts.Trace, ord)
	} else {
		opts.Trace = ord
	}
	r, err := p.Run(g, opts)
	if errors.Is(err, sim.ErrCanceled) {
		return Certified{}, err
	}
	c := Certified{Result: r, Meta: ord.Meta(), Verdict: fold.Verdict(ord.Meta())}
	if jsonl != nil {
		jsonl.End(c.Meta)
	}
	if err == nil {
		c.Verdict.Append(p.ConformCheck(g, r))
	}
	return c, err
}
