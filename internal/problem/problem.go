// Package problem is the sleeping-model problem suite: a uniform
// interface over every distributed problem the simulator can run —
// the paper's three awake-optimal MST algorithms (plus the baseline
// and classic-GHS comparators) and a randomized maximal independent
// set with O(log log n) worst-case awake complexity (in the style of
// Ghaffari–Moses–Pandurangan, arXiv 2204.08359).
//
// A Problem bundles what the drivers need to treat algorithms
// generically: how to run it on a graph (Run), the per-node awake
// envelope its conformance verdict is checked against (Budget), a
// correctness oracle over the produced output (Verify), and the
// trace-checker check that encodes that oracle for verdicts
// (ConformCheck). Problems are addressed by qualified registry names
// (`mis`, `mst/randomized`, ...); the bare MST spellings used by older
// CLIs (`randomized`, `ghs`, ...) resolve as aliases. Certify runs a
// problem and checks its trace plus that oracle in one step; every
// entry point that answers with a verdict goes through it.
//
// All runs flow through internal/sim, so every problem inherits the
// sleeping-model accounting for free: worst-case awake per node,
// node-averaged awake (the awake/node-avg/* metric pair), structured
// traces, and chaos interception.
package problem

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// Result is the output of one problem run. Exactly one of the
// problem-specific fields is populated: Outcome for MST problems,
// InMIS for the MIS problem.
type Result struct {
	// Problem is the qualified registry name of the problem that
	// produced the result.
	Problem string
	// Outcome is the MST outcome (tree edges, LDT states, fragment
	// decay); nil for non-MST problems.
	Outcome *core.Outcome
	// InMIS marks, per node index, membership in the computed maximal
	// independent set; nil for non-MIS problems.
	InMIS []bool
	// Sim holds the runtime accounting (awake complexity, rounds,
	// messages, bits) common to every problem.
	Sim *sim.Result
	// Phases is the number of algorithm phases executed.
	Phases int
}

// Problem is one distributed problem the simulator can run end to
// end: the algorithm, its awake-budget envelope, and its correctness
// oracle.
type Problem interface {
	// Name returns the qualified registry name (e.g. "mst/randomized",
	// "mis").
	Name() string
	// Run executes the problem on g under the given options and
	// returns the run's result.
	Run(g *graph.Graph, opts core.Options) (*Result, error)
	// Budget returns the per-node awake envelope for an n-node run,
	// or ok=false when the problem has no calibrated envelope (the
	// conformance budget check is then skipped).
	Budget(n int) (int64, bool)
	// Verify is the correctness oracle: it returns nil iff r is a
	// correct output for the problem on g.
	Verify(g *graph.Graph, r *Result) error
	// ConformCheck encodes the correctness oracle as a trace-checker
	// check, for appending to a conformance verdict.
	ConformCheck(g *graph.Graph, r *Result) conform.Check
}

// registry maps qualified names to problems. Bare MST algorithm
// spellings are resolved through aliases, so both spellings reach the
// same Problem value.
var registry = map[string]Problem{
	"mis":               misProblem{},
	"mst/randomized":    mstProblem{name: "mst/randomized", algo: conform.AlgoRandomized, run: core.RunRandomized},
	"mst/deterministic": mstProblem{name: "mst/deterministic", algo: conform.AlgoDeterministic, run: core.RunDeterministic},
	"mst/logstar":       mstProblem{name: "mst/logstar", algo: conform.AlgoLogStar, run: core.RunLogStar},
	"mst/baseline":      mstProblem{name: "mst/baseline", algo: "baseline", run: core.RunBaseline},
	"mst/ghs":           mstProblem{name: "mst/ghs", algo: "ghs", run: core.RunClassicGHS},
}

// aliases maps the bare MST spellings accepted by the older CLIs onto
// qualified registry names.
var aliases = map[string]string{
	"randomized":    "mst/randomized",
	"deterministic": "mst/deterministic",
	"logstar":       "mst/logstar",
	"baseline":      "mst/baseline",
	"ghs":           "mst/ghs",
}

// Names returns the qualified problem names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a problem by qualified name or bare MST alias. An
// unknown name is an error listing every valid choice.
func Lookup(name string) (Problem, error) {
	key := strings.TrimSpace(name)
	if q, ok := aliases[key]; ok {
		key = q
	}
	if p, ok := registry[key]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("problem: unknown problem %q (want %s, or a bare MST alias %s)",
		name, strings.Join(Names(), "|"), strings.Join(aliasNames(), "|"))
}

// aliasNames returns the bare MST aliases, sorted.
func aliasNames() []string {
	out := make([]string, 0, len(aliases))
	for name := range aliases {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// mstProblem adapts one core MST runner onto the Problem interface.
type mstProblem struct {
	name string
	algo string // conform catalog spelling for the awake envelope
	run  func(*graph.Graph, core.Options) (*core.Outcome, error)
}

func (p mstProblem) Name() string { return p.name }

func (p mstProblem) Run(g *graph.Graph, opts core.Options) (*Result, error) {
	out, err := p.run(g, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Problem: p.name, Outcome: out, Sim: out.Result, Phases: out.Phases}, nil
}

func (p mstProblem) Budget(n int) (int64, bool) {
	return conform.AwakeBudget(p.algo, n)
}

func (p mstProblem) ConformCheck(g *graph.Graph, r *Result) conform.Check {
	want := graph.TotalWeight(graph.Kruskal(g))
	got := graph.TotalWeight(r.Outcome.MSTEdges)
	return conform.WeightCheck(got, want)
}

func (p mstProblem) Verify(g *graph.Graph, r *Result) error {
	if r == nil || r.Outcome == nil {
		return errors.New("problem: MST run produced no outcome")
	}
	if !graph.IsSpanningTree(g, r.Outcome.MSTEdges) {
		return errors.New("problem: output is not a spanning tree")
	}
	if c := p.ConformCheck(g, r); c.Status != conform.StatusPass {
		return fmt.Errorf("problem: %s", c.Detail)
	}
	return nil
}
