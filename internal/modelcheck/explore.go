package modelcheck

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync/atomic"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// explorer carries one exploration's resolved configuration and the
// cross-job run counter.
type explorer struct {
	cfg       Config
	n         int
	depth     int
	oversleep int
	slack     float64
	maxViol   int
	recCap    int
	maxRuns   int64
	budget    func(n int) (int64, bool)

	rootHash uint64
	runCount atomic.Int64
}

func newExplorer(cfg Config) *explorer {
	e := &explorer{cfg: cfg, n: cfg.Graph.N()}
	e.depth = cfg.Depth
	if e.depth == 0 {
		e.depth = DefaultDepth
	}
	if e.depth < 0 {
		e.depth = 0
	}
	e.oversleep = cfg.Oversleep
	if e.oversleep < 0 {
		e.oversleep = 0
	}
	e.slack = cfg.BudgetSlack
	if e.slack == 0 {
		e.slack = DefaultBudgetSlack
	}
	e.maxViol = cfg.MaxViolations
	if e.maxViol == 0 {
		e.maxViol = DefaultMaxViolations
	}
	e.recCap = cfg.RecorderCap
	e.maxRuns = cfg.MaxRuns
	if e.maxRuns == 0 {
		e.maxRuns = DefaultMaxRuns
	}
	e.budget = cfg.BudgetOverride
	if e.budget == nil {
		e.budget = cfg.Problem.Budget
	}
	return e
}

// leaf is one complete executed schedule: the choices it took, the
// run's output, and its canonical trace.
type leaf struct {
	takens     []int
	log        []choicePoint
	deviations int  // non-default choices taken
	perturbed  bool // took a wake or fault alternative (not only reordering)
	res        *problem.Result
	runErr     error
	meta       trace.Meta
	events     []trace.Event
	hash       uint64
}

// job is one (choice point, alternative) of the production schedule —
// the unit of parallel fan-out. The first non-default choice of every
// schedule is one of these, so jobs partition the schedule space, and
// the partition depends only on the root execution, never on worker
// count or completion order.
type job struct {
	point, alt int
}

// jobResult aggregates one job's subtree; Explore merges them in job
// order.
type jobResult struct {
	runs, schedules, memoHits, pruned, detected, violCount int64
	hashes                                                 []uint64
	violations                                             []Violation
}

// hashTrace fingerprints an execution as FNV-1a over its event lines
// in a normalized order: the canonical (Round, Node, Kind) order with
// a Port tiebreak, which erases the one trace artifact nodes cannot
// observe — the within-round order the scheduler happened to process
// deliveries in (inboxes are port-keyed, at most one message per port
// per round). Two executions with equal hashes therefore have equal
// per-node port-keyed exchange histories — and node state is a
// deterministic function of seed and exchange history, so their
// futures and outputs coincide. That is the memoization soundness
// argument, and it is what lets the memo table prove routing-order
// permutations equivalent instead of merely re-executing them.
func hashTrace(meta trace.Meta, events []trace.Event) uint64 {
	norm := append([]trace.Event(nil), events...)
	sort.SliceStable(norm, func(i, j int) bool {
		a, b := &norm[i], &norm[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Port < b.Port
	})
	h := fnv.New64a()
	fmt.Fprintf(h, "n=%d rounds=%d\n", meta.N, meta.Rounds)
	for i := range norm {
		io.WriteString(h, norm[i].String())
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// runOne executes the schedule prefix (production defaults beyond it)
// from scratch with a fresh recorder and replayer. Errors are
// infrastructure failures — replay divergence, recorder overflow, run
// budget — never algorithm-level failures, which land in leaf.runErr.
func (e *explorer) runOne(prefix []int) (*leaf, error) {
	if e.runCount.Add(1) > e.maxRuns {
		return nil, fmt.Errorf("modelcheck: execution budget exhausted after %d runs (lower Depth or raise MaxRuns)", e.maxRuns)
	}
	rec := trace.NewRecorder(e.recCap)
	rp := &replayer{prefix: prefix, oversleep: e.oversleep, faults: e.cfg.Faults}
	res, runErr := e.cfg.Problem.Run(e.cfg.Graph, core.Options{
		Seed:    e.cfg.Seed,
		Chooser: rp,
		Trace:   rec,
	})
	if rp.mismatch != nil {
		return nil, fmt.Errorf("modelcheck: replay diverged from recorded prefix %v: %w", prefix, rp.mismatch)
	}
	if rp.pos < len(rp.prefix) {
		return nil, fmt.Errorf("modelcheck: execution consumed %d of %d prefix choices (nondeterministic program?)", rp.pos, len(rp.prefix))
	}
	meta := rec.Meta()
	if meta.Dropped > 0 {
		return nil, fmt.Errorf("modelcheck: trace recorder overflowed (%d events evicted); raise RecorderCap", meta.Dropped)
	}
	lf := &leaf{
		takens: rp.takens(),
		log:    rp.log,
		res:    res,
		runErr: runErr,
		meta:   meta,
		events: rec.Events(),
	}
	for _, cp := range rp.log {
		if cp.taken != 0 {
			lf.deviations++
			if cp.kind != kindSend {
				lf.perturbed = true
			}
		}
	}
	lf.hash = hashTrace(lf.meta, lf.events)
	return lf, nil
}

// checkLeaf applies the leaf policy to one complete schedule and
// returns its violation, if any, plus whether the runtime detected an
// injected fault (admissible failure on a perturbed schedule).
func (e *explorer) checkLeaf(lf *leaf) (*Violation, bool) {
	if lf.runErr != nil {
		if lf.perturbed {
			// The runtime refused to produce an answer under the
			// perturbation — detection, not violation.
			return nil, true
		}
		return e.violation(lf, "error", lf.runErr.Error(), nil), false
	}
	info := conform.RunInfo{
		Algorithm: e.cfg.Problem.Name(),
		N:         e.n,
		Seed:      e.cfg.Seed,
		Budget:    e.budget,
	}
	if lf.perturbed {
		info.Relaxed = true
		info.BudgetSlack = e.slack
	}
	v := conform.CheckTrace(lf.meta, lf.events, info)
	v.Append(e.cfg.Problem.ConformCheck(e.cfg.Graph, lf.res))
	if fails := v.Failures(); len(fails) > 0 {
		return e.violation(lf, "conform", fails[0].Detail, fails), false
	}
	if err := e.cfg.Problem.Verify(e.cfg.Graph, lf.res); err != nil {
		return e.violation(lf, "oracle", err.Error(), nil), false
	}
	return nil, false
}

// violation packages a failing leaf as a minimal counterexample: the
// prefix is the schedule trimmed to its last non-default choice, so
// replaying it (defaults beyond) re-executes the violating run.
func (e *explorer) violation(lf *leaf, kind, detail string, checks []conform.Check) *Violation {
	last := -1
	for i, t := range lf.takens {
		if t != 0 {
			last = i
		}
	}
	return &Violation{
		Level:     lf.deviations,
		Prefix:    append([]int(nil), lf.takens[:last+1]...),
		Perturbed: lf.perturbed,
		Kind:      kind,
		Detail:    detail,
		Checks:    checks,
		Meta:      lf.meta,
		Events:    lf.events,
	}
}

// exploreJob explores one job's subtree at one deviation level. Each
// (job, level) gets a private memo table, so jobs never share mutable
// state and the aggregate is byte-identical at every worker count.
// The table maps a state hash to the largest remaining deviation
// budget it has been expanded with; the root state is seeded at the
// full level, because the totality of this level's jobs is exactly
// the root's budget-level subtree.
func (e *explorer) exploreJob(j job, level int) (*jobResult, error) {
	jr := &jobResult{}
	var memo map[uint64]int
	if !e.cfg.NoMemo {
		memo = map[uint64]int{e.rootHash: level}
	}
	prefix := make([]int, j.point+1)
	prefix[j.point] = j.alt
	if err := e.dfs(prefix, level, memo, jr); err != nil {
		return nil, err
	}
	return jr, nil
}

// dfs explores the schedule subtree rooted at prefix. A schedule is
// checked iff its deviation count equals the level — with levels
// explored 0..Depth in turn, every schedule is visited exactly once,
// at its exact deviation count, and the first violating level yields
// deviation-minimal counterexamples.
//
// Memoization prunes a subtree only when the state was already seen
// with at least as much remaining budget (a hit with less budget
// would skip schedules the earlier visit was not entitled to cover).
// BranchesPruned counts the immediate branch alternatives a hit
// skips.
func (e *explorer) dfs(prefix []int, level int, memo map[uint64]int, jr *jobResult) error {
	lf, err := e.runOne(prefix)
	if err != nil {
		return err
	}
	jr.runs++
	rem := level - lf.deviations
	stored, seen := memo[lf.hash]
	hit := seen && stored >= rem
	if memo != nil && (!seen || stored < rem) {
		memo[lf.hash] = rem
	}
	if rem <= 0 {
		// A complete schedule at this level.
		jr.schedules++
		jr.hashes = append(jr.hashes, lf.hash)
		if hit {
			jr.memoHits++
			return nil
		}
		viol, detected := e.checkLeaf(lf)
		if detected {
			jr.detected++
		}
		if viol != nil {
			jr.violCount++
			if len(jr.violations) < e.maxViol {
				jr.violations = append(jr.violations, *viol)
			}
		}
		return nil
	}
	// An interior node — its own schedule was checked at an earlier
	// level; branch on the choice points beyond the prefix.
	if hit {
		jr.memoHits++
		for _, cp := range lf.log[len(prefix):] {
			jr.pruned += int64(cp.k - 1)
		}
		return nil
	}
	for i := len(prefix); i < len(lf.log); i++ {
		for alt := 1; alt < lf.log[i].k; alt++ {
			child := make([]int, i+1)
			copy(child, lf.takens[:i])
			child[i] = alt
			if err := e.dfs(child, level, memo, jr); err != nil {
				return err
			}
		}
	}
	return nil
}
