// Package modelcheck is the bounded state-space explorer: it drives
// the simulator deterministically through every admissible
// nondeterminism branch of a problem run on a small topology and
// checks the internal/conform invariant catalog plus the problem's
// correctness oracle on every leaf — the claims chaos sampling
// spot-checks, proved exhaustively for small n.
//
// # Branch model
//
// The simulator's nondeterminism surface is the sim.Chooser hook.
// The clean sleeping model has exactly one admissible nondeterminism:
// the adversarial message-routing order within a round (any
// permutation of the round's staged senders) — a node's wake schedule
// is its own choice, so the default exploration branches on routing
// order only and holds every schedule to the strict catalog. Two
// chaos extensions widen the surface on demand: wake-schedule
// perturbation (Oversleep > 0: a parked node may be overslept by 1..k
// extra rounds) and per-message single-fault injection (Faults: drop
// or deliver). Each point offers k alternatives; alternative 0 is the
// production choice. A schedule is the sequence of alternatives
// taken; the production run is the all-zeros schedule.
//
// Exploration is stateless in the CHESS style: node program state
// cannot be snapshotted, so the explorer re-executes the system from
// scratch with a recorded choice prefix and branches on the choice
// points the execution logs beyond it. The search is delay-bounded:
// Depth caps the number of non-default choices per schedule, and the
// explorer iteratively deepens the bound 0..Depth, stopping at the
// first level that finds violations — retained counterexamples are
// therefore deviation-minimal.
//
// # Memoization
//
// A node's state is a deterministic function of its seed and its
// observable exchange history, so two executions with identical
// canonical traces are semantically identical and their futures
// coincide. The explorer hashes each execution's trace; when a hash
// repeats, the suffix subtree is pruned as equivalent (the verdict
// accounts for it under MemoHits/BranchesPruned). In particular the
// within-round routing order is unobservable in the clean model
// (inboxes are port-keyed with at most one message per port per
// round), which the memo table discovers — and proves — exhaustively.
//
// # Determinism
//
// Subtrees fan out across the internal/sweep pool: the root
// execution's choice-point log partitions the schedule space into
// per-(point, alternative) jobs, each explored with its own memo
// table and aggregated in job order, so the verdict is byte-identical
// at every worker count.
//
// # Leaf policy
//
// Ordering-only schedules (no oversleep, no fault taken) must pass
// the strict catalog and the oracle; any run error is a violation.
// Perturbed schedules are held to the relaxed catalog with
// BudgetSlack, and a runtime-detected failure (awake budget, round
// cap, non-convergence) is admissible — the run refused to produce a
// wrong answer — but a silent wrong output is a violation.
package modelcheck

import (
	"errors"
	"fmt"
	"io"

	"encoding/json"

	"sleepmst/internal/conform"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/sweep"
	"sleepmst/internal/trace"
)

// VerdictSchema is the version stamp of the verdict JSON shape.
const VerdictSchema = 1

// Defaults for the zero-valued Config fields.
const (
	// DefaultDepth is the deviation bound when Config.Depth is 0.
	DefaultDepth = 2
	// DefaultBudgetSlack multiplies the awake budget on perturbed
	// schedules when Config.BudgetSlack is 0.
	DefaultBudgetSlack = 2.0
	// DefaultMaxViolations caps retained counterexamples when
	// Config.MaxViolations is 0 (counting always continues).
	DefaultMaxViolations = 8
	// DefaultMaxRuns bounds total executions when Config.MaxRuns is 0.
	DefaultMaxRuns = 1 << 20
	// MaxNodes bounds the topology size: exhaustive exploration is a
	// small-n tool by construction.
	MaxNodes = 8
)

// Config parameterizes an exploration.
type Config struct {
	// Problem is the problem under check. Required.
	Problem problem.Problem
	// Graph is the (small) topology. Required; at most MaxNodes nodes.
	Graph *graph.Graph
	// Seed seeds the run's node-private randomness; the exploration is
	// exhaustive over schedules for this one seed.
	Seed int64
	// Depth bounds the non-default choices per schedule (0 =
	// DefaultDepth). Level d is explored only if levels 0..d-1 found
	// no violation.
	Depth int
	// Oversleep is the wake-perturbation span, a chaos extension: when
	// positive, every park is a choice point at which the scheduler
	// may oversleep the node by 1..Oversleep extra rounds. Zero or
	// negative (the default) keeps the clean model, where wake
	// schedules are the algorithm's own and only routing order
	// branches. The paper's algorithms are not oversleep-tolerant —
	// expect genuine counterexamples when enabling this.
	Oversleep int
	// Faults enables per-message drop choice points (depth-bounded
	// single-fault chaos injection). Like Oversleep, this explores
	// beyond the clean model's guarantees.
	Faults bool
	// BudgetSlack multiplies the awake budget on perturbed schedules
	// (0 = DefaultBudgetSlack).
	BudgetSlack float64
	// Workers sizes the sweep pool (0 = GOMAXPROCS, 1 = serial). The
	// verdict is byte-identical for every value.
	Workers int
	// NoMemo disables state-hash pruning: every admissible schedule
	// within the bound is executed and checked individually.
	NoMemo bool
	// MaxViolations caps the retained counterexamples (0 =
	// DefaultMaxViolations); ViolationCount keeps counting past it.
	MaxViolations int
	// RecorderCap sizes each execution's trace recorder (0 =
	// trace.DefaultCapacity). An overflowing recorder aborts the
	// exploration — a truncated trace cannot be hashed or checked.
	RecorderCap int
	// MaxRuns aborts the exploration when total executions exceed it
	// (0 = DefaultMaxRuns) — the guard against state explosion.
	MaxRuns int64
	// BudgetOverride, if non-nil, replaces the problem's awake
	// envelope in the leaf checks — the seeded-bug test hook and
	// ablation surface.
	BudgetOverride func(n int) (int64, bool)
}

// Violation is one schedule on which a check failed, with the full
// counterexample trace for replay (the trace fields stay out of the
// JSON artifact; cex traces are emitted as JSONL next to it).
type Violation struct {
	// Level is the schedule's deviation count — minimal over all
	// violating schedules, by iterative deepening.
	Level int `json:"level"`
	// Prefix is the choice sequence reproducing the schedule: replay
	// it (all-default beyond) to re-execute the counterexample.
	Prefix []int `json:"prefix"`
	// Perturbed records whether the schedule took an oversleep or
	// fault choice (relaxed leaf policy) rather than only reordering.
	Perturbed bool `json:"perturbed"`
	// Kind classifies the failure: "error" (unperturbed run failed),
	// "conform" (invariant catalog), or "oracle" (problem output).
	Kind string `json:"kind"`
	// Detail is the first failing check's message.
	Detail string `json:"detail"`
	// Checks lists the failing conformance checks, when Kind is
	// "conform".
	Checks []conform.Check `json:"checks,omitempty"`
	// Meta and Events are the counterexample trace, replayable via
	// conform.CheckTrace and diffable against the baseline with
	// cmd/tracediff.
	Meta   trace.Meta    `json:"-"`
	Events []trace.Event `json:"-"`
}

// Verdict is the result of one exploration: schema-versioned coverage
// counters plus the violation list.
type Verdict struct {
	// Schema is VerdictSchema.
	Schema int `json:"schema"`
	// Problem is the qualified problem name.
	Problem string `json:"problem"`
	// Topo names the topology when the caller knows it (mstbench's
	// -topo spelling); informational.
	Topo string `json:"topo,omitempty"`
	// N is the node count.
	N int `json:"n"`
	// Seed is the explored seed.
	Seed int64 `json:"seed"`
	// Depth is the configured deviation bound; DepthReached is the
	// last level actually explored (smaller when a level violated).
	Depth        int `json:"depth"`
	DepthReached int `json:"depth_reached"`
	// Oversleep and Faults record the branch surface explored.
	Oversleep int  `json:"oversleep"`
	Faults    bool `json:"faults"`
	// Memo records whether state-hash pruning was on.
	Memo bool `json:"memo"`
	// RootChoicePoints is the number of choice points on the
	// production schedule — the branching surface per level.
	RootChoicePoints int `json:"root_choice_points"`
	// Schedules counts the distinct schedules checked (each exactly
	// once, at its exact deviation level). Runs counts executions
	// performed, including iterative-deepening revisits.
	Schedules int64 `json:"schedules"`
	Runs      int64 `json:"runs"`
	// DistinctStates is the number of distinct trace hashes among
	// checked schedules; MemoHits counts executions recognized as
	// equivalent to an already-visited state; BranchesPruned counts
	// the branch alternatives skipped under those hits.
	DistinctStates int64 `json:"distinct_states"`
	MemoHits       int64 `json:"memo_hits"`
	BranchesPruned int64 `json:"branches_pruned"`
	// DetectedFailures counts perturbed schedules on which the
	// runtime detected the fault and failed the run — admissible.
	DetectedFailures int64 `json:"detected_failures"`
	// ViolationCount is the total violations found; Violations
	// retains at most MaxViolations of them, deviation-minimal.
	ViolationCount int64       `json:"violation_count"`
	Violations     []Violation `json:"violations"`
	// Pass is true when no schedule violated.
	Pass bool `json:"pass"`

	// BaselineMeta and BaselineEvents are the production schedule's
	// trace — the diff baseline for every counterexample.
	BaselineMeta   trace.Meta    `json:"-"`
	BaselineEvents []trace.Event `json:"-"`
}

// WriteJSON writes the verdict as indented JSON.
func (v *Verdict) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// String renders a human one-liner plus violation lines.
func (v *Verdict) String() string {
	verdict := "PASS"
	if !v.Pass {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("modelcheck %s  problem=%s n=%d seed=%d depth=%d/%d schedules=%d runs=%d states=%d hits=%d pruned=%d detected=%d violations=%d",
		verdict, v.Problem, v.N, v.Seed, v.DepthReached, v.Depth, v.Schedules, v.Runs,
		v.DistinctStates, v.MemoHits, v.BranchesPruned, v.DetectedFailures, v.ViolationCount)
	for _, viol := range v.Violations {
		s += fmt.Sprintf("\n  [%s] level=%d prefix=%v perturbed=%v: %s", viol.Kind, viol.Level, viol.Prefix, viol.Perturbed, viol.Detail)
	}
	return s
}

// Explore runs the bounded exploration and returns its verdict. The
// returned error reports infrastructure failures (invalid config,
// recorder overflow, run-budget exhaustion) — invariant violations
// are not errors; they are the verdict's content.
func Explore(cfg Config) (*Verdict, error) {
	if cfg.Problem == nil {
		return nil, errors.New("modelcheck: config requires a problem")
	}
	if cfg.Graph == nil {
		return nil, errors.New("modelcheck: config requires a graph")
	}
	if n := cfg.Graph.N(); n > MaxNodes {
		return nil, fmt.Errorf("modelcheck: n=%d exceeds the exhaustive-exploration bound %d (use a path/ring/star/K4 topology with n <= 6)", n, MaxNodes)
	}
	e := newExplorer(cfg)

	// Level 0: the production schedule. Its choice-point log is the
	// branching surface and its trace the counterexample baseline.
	root, err := e.runOne(nil)
	if err != nil {
		return nil, err
	}
	e.rootHash = root.hash

	v := &Verdict{
		Schema:           VerdictSchema,
		Problem:          cfg.Problem.Name(),
		N:                e.n,
		Seed:             cfg.Seed,
		Depth:            e.depth,
		Oversleep:        e.oversleep,
		Faults:           cfg.Faults,
		Memo:             !cfg.NoMemo,
		RootChoicePoints: len(root.log),
		BaselineMeta:     root.meta,
		BaselineEvents:   root.events,
	}
	distinct := map[uint64]bool{root.hash: true}
	v.Runs, v.Schedules = 1, 1
	if viol, _ := e.checkLeaf(root); viol != nil {
		v.ViolationCount++
		v.Violations = append(v.Violations, *viol)
	}

	// Levels 1..Depth: one job per (choice point, alternative) of the
	// production schedule — the same partition at every level and
	// worker count, aggregated in job order.
	jobs := make([]job, 0, len(root.log))
	for i, cp := range root.log {
		for alt := 1; alt < cp.k; alt++ {
			jobs = append(jobs, job{point: i, alt: alt})
		}
	}
	for level := 1; level <= e.depth && v.ViolationCount == 0; level++ {
		results, err := sweep.Map(sweep.Config{Workers: cfg.Workers}, jobs, func(j job) (*jobResult, error) {
			return e.exploreJob(j, level)
		})
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			v.Runs += r.runs
			v.Schedules += r.schedules
			v.MemoHits += r.memoHits
			v.BranchesPruned += r.pruned
			v.DetectedFailures += r.detected
			v.ViolationCount += r.violCount
			for _, h := range r.hashes {
				distinct[h] = true
			}
			for _, viol := range r.violations {
				if len(v.Violations) < e.maxViol {
					v.Violations = append(v.Violations, viol)
				}
			}
		}
		v.DepthReached = level
		// Stop deepening after a violating level: everything retained
		// is deviation-minimal.
	}
	v.DistinctStates = int64(len(distinct))
	v.Pass = v.ViolationCount == 0
	return v, nil
}
