package modelcheck

import (
	"bytes"
	"errors"
	"testing"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
)

// pingMsg is the one-bit payload of the chatter test problem.
type pingMsg struct{}

func (pingMsg) Bits() int { return 1 }

// chatterProblem is the minimal deterministic test problem: every
// node is awake for rounds consecutive rounds, sending one ping on
// every port each round, so its schedule tree is small enough to
// enumerate by hand. With buggy set, a node that notices it was
// overslept burns an extra awake round resynchronizing — the seeded
// regression of TestSeededBudgetRegression: the production schedule
// stays exactly on budget, so only a perturbed schedule exposes it.
type chatterProblem struct {
	rounds int
	buggy  bool
}

func (p chatterProblem) Name() string { return "test/chatter" }

func (p chatterProblem) Budget(n int) (int64, bool) { return int64(p.rounds), true }

func (p chatterProblem) Verify(g *graph.Graph, r *problem.Result) error {
	if r == nil || r.Sim == nil {
		return errors.New("chatter: no result")
	}
	return nil
}

func (p chatterProblem) ConformCheck(g *graph.Graph, r *problem.Result) conform.Check {
	return conform.Check{Name: "oracle/chatter", Status: conform.StatusPass}
}

func (p chatterProblem) Run(g *graph.Graph, opts core.Options) (*problem.Result, error) {
	res, err := sim.Run(sim.Config{
		Graph:       g,
		Seed:        opts.Seed,
		Interceptor: opts.Interceptor,
		Trace:       opts.Trace,
	}, func(nd *sim.Node) error {
		deg := nd.Degree()
		for r := int64(1); r <= int64(p.rounds); r++ {
			nd.SleepUntil(r)
			out := make(sim.Outbox, deg)
			for pt := 0; pt < deg; pt++ {
				out[pt] = pingMsg{}
			}
			nd.Exchange(out)
			// A node on schedule finishes round r positioned at r+1; a
			// larger Round() means the scheduler overslept it.
			if p.buggy && nd.Round() > r+1 {
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

// TestExhaustiveness pins the explorer's coverage accounting to
// hand-computed schedule counts on topologies small enough to
// enumerate on paper. Ordering-only branching (oversleep disabled):
//
//   - path2, 2 rounds: each round stages 2 senders -> one k=2 choice
//     point per round, 2 points, 2*2 = 4 total interleavings.
//   - ring3, 1 round: 3 staged senders -> k=3 then k=2 points,
//     3*2 = 6 total interleavings.
//
// Routing order is unobservable (port-keyed inboxes), so every
// interleaving hashes to one state: with memoization the explorer
// proves equivalence instead of re-exploring, and the identity
// Schedules + BranchesPruned == total interleavings accounts for
// every pruned branch; without it, every interleaving is visited
// exactly once across the deepening levels.
func TestExhaustiveness(t *testing.T) {
	path2 := graph.Path(2, graph.GenConfig{Seed: 1})
	ring3 := graph.Cycle(3, graph.GenConfig{Seed: 1})
	cases := []struct {
		name   string
		g      *graph.Graph
		rounds int
		noMemo bool
		total  int64 // hand-computed interleaving count

		rootPoints                              int
		schedules, runs, memoHits, pruned, dist int64
	}{
		{
			name: "path2/memo", g: path2, rounds: 2, total: 4,
			rootPoints: 2, schedules: 3, runs: 5, memoHits: 4, pruned: 1, dist: 1,
		},
		{
			name: "path2/nomemo", g: path2, rounds: 2, noMemo: true, total: 4,
			rootPoints: 2, schedules: 4, runs: 6, memoHits: 0, pruned: 0, dist: 1,
		},
		{
			name: "ring3/memo", g: ring3, rounds: 1, total: 6,
			rootPoints: 2, schedules: 4, runs: 7, memoHits: 6, pruned: 2, dist: 1,
		},
		{
			name: "ring3/nomemo", g: ring3, rounds: 1, noMemo: true, total: 6,
			rootPoints: 2, schedules: 6, runs: 9, memoHits: 0, pruned: 0, dist: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Explore(Config{
				Problem: chatterProblem{rounds: tc.rounds},
				Graph:   tc.g,
				Depth:   2,
				Workers: 1,
				NoMemo:  tc.noMemo,
			})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if !v.Pass || v.ViolationCount != 0 {
				t.Fatalf("expected a clean pass, got %s", v)
			}
			if v.RootChoicePoints != tc.rootPoints {
				t.Errorf("root choice points = %d, want %d", v.RootChoicePoints, tc.rootPoints)
			}
			if v.Schedules != tc.schedules || v.Runs != tc.runs {
				t.Errorf("schedules/runs = %d/%d, want %d/%d", v.Schedules, v.Runs, tc.schedules, tc.runs)
			}
			if v.MemoHits != tc.memoHits || v.BranchesPruned != tc.pruned {
				t.Errorf("memoHits/pruned = %d/%d, want %d/%d", v.MemoHits, v.BranchesPruned, tc.memoHits, tc.pruned)
			}
			if v.DistinctStates != tc.dist {
				t.Errorf("distinct states = %d, want %d", v.DistinctStates, tc.dist)
			}
			if !tc.noMemo && v.Schedules+v.BranchesPruned != tc.total {
				t.Errorf("schedules(%d) + pruned(%d) != total interleavings %d", v.Schedules, v.BranchesPruned, tc.total)
			}
			if tc.noMemo && v.Schedules != tc.total {
				t.Errorf("NoMemo visited %d schedules, want all %d interleavings", v.Schedules, tc.total)
			}
			if v.DepthReached != 2 {
				t.Errorf("depth reached = %d, want 2", v.DepthReached)
			}
		})
	}
}

// TestSeededBudgetRegression seeds the off-by-one awake bug (buggy
// chatter: one extra awake round, but only when overslept) and checks
// the explorer finds a deviation-minimal counterexample that replays
// to the same violation through conform.CheckTrace — the end-to-end
// contract of the counterexample artifact.
func TestSeededBudgetRegression(t *testing.T) {
	p := chatterProblem{rounds: 2, buggy: true}
	g := graph.Path(2, graph.GenConfig{Seed: 1})
	v, err := Explore(Config{
		Problem:     p,
		Graph:       g,
		Depth:       2,
		Oversleep:   1,
		BudgetSlack: 1.0, // exact budget: the extra round must trip it
		Workers:     1,
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if v.Pass || v.ViolationCount == 0 {
		t.Fatalf("expected the seeded bug to violate, got %s", v)
	}
	if v.DepthReached != 1 {
		t.Errorf("deepening continued past the first violating level: reached %d", v.DepthReached)
	}
	viol := v.Violations[0]
	if viol.Level != 1 {
		t.Errorf("counterexample level = %d, want the minimal 1", viol.Level)
	}
	if !viol.Perturbed {
		t.Error("counterexample not marked perturbed: the bug needs an oversleep to fire")
	}
	if viol.Kind != "conform" {
		t.Errorf("violation kind = %q, want conform", viol.Kind)
	}
	if len(viol.Prefix) == 0 || viol.Prefix[len(viol.Prefix)-1] == 0 {
		t.Errorf("prefix %v not trimmed to its last non-default choice", viol.Prefix)
	}
	if len(viol.Events) == 0 {
		t.Fatal("counterexample carries no trace")
	}

	// The counterexample trace replays to the same violation under the
	// same leaf policy.
	cv := conform.CheckTrace(viol.Meta, viol.Events, conform.RunInfo{
		Algorithm:   p.Name(),
		N:           g.N(),
		Budget:      p.Budget,
		BudgetSlack: 1.0,
		Relaxed:     true,
	})
	c := cv.Lookup(conform.CheckAwakeBudget)
	if c == nil || c.Status != conform.StatusFail {
		t.Fatalf("replayed counterexample does not fail the awake-budget check: %+v", c)
	}

	// The production schedule stays on budget: the bug is genuinely
	// schedule-dependent, and the baseline is a valid diff target.
	bv := conform.CheckTrace(v.BaselineMeta, v.BaselineEvents, conform.RunInfo{
		Algorithm: p.Name(),
		N:         g.N(),
		Budget:    p.Budget,
	})
	if fails := bv.Failures(); len(fails) > 0 {
		t.Fatalf("baseline schedule unexpectedly fails: %+v", fails)
	}
}

// TestBudgetOverrideHook drives the test hook directly: an envelope
// one round too tight must fail the production schedule itself, with
// an empty (level-0) prefix and no deepening past the violation.
func TestBudgetOverrideHook(t *testing.T) {
	v, err := Explore(Config{
		Problem:        chatterProblem{rounds: 2},
		Graph:          graph.Path(2, graph.GenConfig{Seed: 1}),
		Depth:          2,
		Workers:        1,
		BudgetOverride: func(n int) (int64, bool) { return 1, true },
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if v.Pass || v.ViolationCount == 0 {
		t.Fatal("expected the tightened envelope to violate")
	}
	viol := v.Violations[0]
	if viol.Level != 0 || len(viol.Prefix) != 0 {
		t.Errorf("production-schedule violation should have level 0 and empty prefix, got level=%d prefix=%v", viol.Level, viol.Prefix)
	}
	if v.DepthReached != 0 {
		t.Errorf("deepening ran to level %d past a level-0 violation", v.DepthReached)
	}
}

// TestWorkerCountInvariance checks the determinism contract on a
// branchier exploration (oversleep enabled): the verdict must be
// byte-identical at every worker count.
func TestWorkerCountInvariance(t *testing.T) {
	verdict := func(workers int) []byte {
		v, err := Explore(Config{
			Problem:   chatterProblem{rounds: 2},
			Graph:     graph.Cycle(3, graph.GenConfig{Seed: 1}),
			Depth:     2,
			Oversleep: 1,
			Faults:    true,
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("Explore(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := v.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	serial := verdict(1)
	parallel := verdict(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("verdict differs between worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
	}
}

// TestConfigValidation pins the error surface: missing problem or
// graph, and the small-n bound.
func TestConfigValidation(t *testing.T) {
	p := chatterProblem{rounds: 1}
	g := graph.Path(2, graph.GenConfig{Seed: 1})
	if _, err := Explore(Config{Graph: g}); err == nil {
		t.Error("nil problem accepted")
	}
	if _, err := Explore(Config{Problem: p}); err == nil {
		t.Error("nil graph accepted")
	}
	big := graph.Path(MaxNodes+1, graph.GenConfig{Seed: 1})
	if _, err := Explore(Config{Problem: p, Graph: big}); err == nil {
		t.Errorf("n=%d accepted past the exhaustive bound", MaxNodes+1)
	}
}
