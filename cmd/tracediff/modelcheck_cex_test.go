package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/modelcheck"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// oversleepBugMsg is the one-bit payload of the fixture problem.
type oversleepBugMsg struct{}

func (oversleepBugMsg) Bits() int { return 1 }

// oversleepBugProblem is the seeded-bug fixture: two awake rounds of
// all-port chatter, plus one extra awake round whenever the scheduler
// overslept the node — exactly on budget on the production schedule,
// over budget on any overslept one, so the model checker's
// counterexample necessarily diverges from the baseline trace.
type oversleepBugProblem struct{}

func (oversleepBugProblem) Name() string { return "test/oversleep-bug" }

func (oversleepBugProblem) Budget(n int) (int64, bool) { return 2, true }

func (oversleepBugProblem) Verify(g *graph.Graph, r *problem.Result) error {
	if r == nil || r.Sim == nil {
		return errors.New("oversleep-bug: no result")
	}
	return nil
}

func (oversleepBugProblem) ConformCheck(g *graph.Graph, r *problem.Result) conform.Check {
	return conform.Check{Name: "oracle/oversleep-bug", Status: conform.StatusPass}
}

func (p oversleepBugProblem) Run(g *graph.Graph, opts core.Options) (*problem.Result, error) {
	res, err := sim.Run(sim.Config{
		Graph:       g,
		Seed:        opts.Seed,
		Interceptor: opts.Interceptor,
		Trace:       opts.Trace,
	}, func(nd *sim.Node) error {
		deg := nd.Degree()
		for r := int64(1); r <= 2; r++ {
			nd.SleepUntil(r)
			out := make(sim.Outbox, deg)
			for pt := 0; pt < deg; pt++ {
				out[pt] = oversleepBugMsg{}
			}
			nd.Exchange(out)
			if nd.Round() > r+1 { // overslept: burn an extra awake round
				nd.Exchange(nil)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &problem.Result{Problem: p.Name(), Sim: res, Phases: 1}, nil
}

// TestModelCheckCounterexampleLocalises closes the loop promised by
// the model checker: explore the seeded-bug problem, emit the
// baseline and counterexample traces exactly as `mstbench -exp
// modelcheck -mc-cex` does, and check that tracediff flags the pair
// divergent and localises the first divergent event — the same index
// a direct scan of the two canonical streams finds.
func TestModelCheckCounterexampleLocalises(t *testing.T) {
	v, err := modelcheck.Explore(modelcheck.Config{
		Problem:     oversleepBugProblem{},
		Graph:       graph.Path(2, graph.GenConfig{Seed: 1}),
		Seed:        1,
		Depth:       2,
		Oversleep:   1,
		BudgetSlack: 1.0,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass || len(v.Violations) == 0 {
		t.Fatalf("seeded bug not found: %s", v)
	}
	cex := v.Violations[0]

	dir := t.TempDir()
	write := func(name string, meta trace.Meta, events []trace.Event) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteEventsJSONL(f, meta, events); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("baseline.jsonl", v.BaselineMeta, v.BaselineEvents)
	cexPath := write("cex1.jsonl", cex.Meta, cex.Events)

	var buf bytes.Buffer
	code, err := run(&buf, basePath, cexPath)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("tracediff exit = %d on a divergent pair, want 1\n%s", code, buf.String())
	}

	// The reported index must be the first real divergence of the
	// canonical streams.
	first := -1
	for i := 0; i < len(v.BaselineEvents) && i < len(cex.Events); i++ {
		if v.BaselineEvents[i] != cex.Events[i] {
			first = i
			break
		}
	}
	if first < 0 {
		first = min(len(v.BaselineEvents), len(cex.Events))
	}
	want := fmt.Sprintf("first divergence: event %d", first)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report does not localise %q:\n%s", want, buf.String())
	}
}
