package problem

import (
	"errors"
	"math"
	"slices"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/metrics"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// The MIS algorithm, in the style of Ghaffari–Moses–Pandurangan
// (arXiv 2204.08359): O(log log n) worst-case awake complexity w.h.p.
//
// Stage 1, sparsify (misPhases(n) phases of 2 awake rounds each):
// every undecided node wakes in both rounds of every phase. In round
// one of phase i it becomes a candidate with probability 2^(-L/2^i)
// (L = ceil(log2 n); the probability doubles its exponent each phase,
// reaching >= 1/2 by the last phase) and exchanges (id, rank,
// candidate) with all neighbors. A candidate joins the MIS iff its
// (rank, id) pair is strictly smallest among candidate neighbors —
// a total order, so two adjacent candidates never join together. In
// round two joiners announce; undecided receivers become covered and
// exit. After the last phase the residual graph has small degree
// w.h.p., so the serial cleanup below stays within the budget.
//
// Stage 2, cleanup: one sync round in which the residual (still
// undecided) nodes exchange IDs, then an ID-slotted serial greedy:
// node v announces join/decline at round slot(v) = sync + ID(v), and
// wakes only at the slots of its lower-ID residual neighbors. v joins
// iff no lower-ID residual neighbor joined; silence at a slot means
// decline, so covered nodes simply stop waking. Slots are globally
// unique, the scheduler skips all-asleep rounds, and only awake
// rounds are charged — the ID-sized window is free.
//
// Correctness is deterministic (both stages preserve independence and
// leave no uncovered undecided node); only the awake bound is
// probabilistic, which is why the conformance envelope carries
// BudgetSlack under chaos.

// BudgetCMIS is the measured awake-budget constant for the MIS
// problem: the worst awake/envelope ratio over seeded
// RandomConnected(n, 3n) sweeps (200 seeds, n up to 1024) is ~3.0
// against the log2 log2 n + 1 envelope; the constant leaves ~1.5x
// headroom so the budget catches regressions without flaking on seed
// variance (the same calibration style as the MST constants in
// internal/conform).
const BudgetCMIS = 5

// MISAwakeBudget returns the per-node awake envelope for an n-node
// MIS run: ceil(BudgetCMIS · (log2 log2 n + 1)), with n clamped to 4
// so the double logarithm stays positive. ok is always true.
func MISAwakeBudget(n int) (budget int64, ok bool) {
	if n < 4 {
		n = 4
	}
	loglog := math.Log2(math.Log2(float64(n)))
	return int64(math.Ceil(BudgetCMIS * (loglog + 1))), true
}

// misPhases returns the sparsify-stage shape for n nodes: L = ceil(
// log2 n) and the phase count P = ceil(log2 L) + 1, the smallest
// count that lets the candidacy probability 2^(-L/2^i) reach 1/2,
// plus one extra phase of margin.
func misPhases(n int) (L, P int) {
	if n < 2 {
		return 1, 1
	}
	L = int(math.Ceil(math.Log2(float64(n))))
	if L < 1 {
		L = 1
	}
	P = 0
	for 1<<P < L {
		P++
	}
	return L, P + 1
}

// misSampleMsg is the round-one exchange of a sparsify phase.
type misSampleMsg struct {
	id        int64
	rank      uint32
	candidate bool
}

func (m misSampleMsg) Bits() int { return ldt.FieldBits(m.id) + 32 + 1 }

// misJoinMsg announces an MIS join in round two of a sparsify phase.
type misJoinMsg struct{}

func (misJoinMsg) Bits() int { return 1 }

// misSyncMsg is the cleanup sync exchange among residual nodes.
type misSyncMsg struct {
	id int64
}

func (m misSyncMsg) Bits() int { return ldt.FieldBits(m.id) }

// misDecideMsg is a cleanup-slot announcement.
type misDecideMsg struct {
	join bool
}

func (misDecideMsg) Bits() int { return 1 }

// misProblem is the MIS entry of the problem registry.
type misProblem struct{}

func (misProblem) Name() string { return "mis" }

func (misProblem) Budget(n int) (int64, bool) { return MISAwakeBudget(n) }

func (misProblem) Run(g *graph.Graph, opts core.Options) (*Result, error) {
	return RunMIS(g, opts)
}

func (misProblem) ConformCheck(g *graph.Graph, r *Result) conform.Check {
	return conform.MISCheck(graph.MISViolations(g, r.InMIS))
}

func (p misProblem) Verify(g *graph.Graph, r *Result) error {
	if r == nil || len(r.InMIS) != g.N() {
		return errors.New("problem: MIS run produced no membership vector")
	}
	if c := p.ConformCheck(g, r); c.Status != conform.StatusPass {
		return errors.New("problem: " + c.Detail)
	}
	return nil
}

// node decision states of the MIS program.
const (
	misUndecided = iota
	misIn
	misOut
)

// RunMIS computes a maximal independent set of g in the sleeping
// model. The result's InMIS marks membership per node index; Phases
// reports the sparsify phase count plus one for cleanup. Unlike the
// MST runners, g need not be connected.
func RunMIS(g *graph.Graph, opts core.Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("problem: nil graph")
	}
	n := g.N()
	L, P := misPhases(n)
	inMIS := make([]bool, n) // each node writes only its own index

	res, err := sim.Run(opts.SimConfig(g), func(nd *sim.Node) error {
		id := nd.ID()
		state := misUndecided

		// stepDone attributes the awake rounds spent since the last
		// call to one step, keeping the attributed==charged identity
		// the conformance checker verifies.
		stepAwake := int64(0)
		stepDone := func(phase int, step trace.Step) {
			d := nd.AwakeCount() - stepAwake
			stepAwake = nd.AwakeCount()
			if d == 0 {
				return
			}
			nd.EmitStep(phase, step, d)
			if m := nd.Metrics(); m != nil {
				m.Add(metrics.StepName(step), d)
				m.Add(metrics.PhaseName(phase), d)
			}
		}

		// Stage 1: sparsify. Phase i occupies rounds 2i-1 and 2i.
		for i := 1; i <= P && state == misUndecided; i++ {
			nd.EmitPhase(i, 0)
			nd.SleepUntil(int64(2*i - 1))
			prob := math.Exp2(-float64(L) / float64(int64(1)<<uint(i)))
			candidate := nd.Rand().Float64() < prob
			rank := nd.Rand().Uint32()
			out := nd.Outbox()
			sample := interface{}(misSampleMsg{id: id, rank: rank, candidate: candidate})
			for pt := range out {
				out[pt] = sample
			}
			in := nd.Exchange(out)
			join := candidate
			if candidate {
				// A nil slot (a silent port) fails every assertion below.
				for _, raw := range in {
					m, ok := raw.(misSampleMsg)
					if !ok || !m.candidate {
						continue
					}
					if m.rank < rank || (m.rank == rank && m.id < id) {
						join = false
						break
					}
				}
			}
			var announce sim.Outbox
			if join {
				announce = nd.Outbox()
				for pt := range announce {
					announce[pt] = misJoinMsg{}
				}
			}
			in = nd.Exchange(announce)
			switch {
			case join:
				state = misIn
			default:
				for _, raw := range in {
					if _, ok := raw.(misJoinMsg); ok {
						state = misOut
						break
					}
				}
			}
			stepDone(i, trace.StepMISSample)
		}

		// Stage 2: cleanup of the residual graph.
		if state == misUndecided {
			nd.EmitPhase(P+1, 0)
			sync := int64(2*P + 1)
			nd.SleepUntil(sync)
			out := nd.Outbox()
			hello := interface{}(misSyncMsg{id: id})
			for pt := range out {
				out[pt] = hello
			}
			in := nd.Exchange(out)
			var lower []int64
			for _, raw := range in {
				if m, ok := raw.(misSyncMsg); ok && m.id < id {
					lower = append(lower, m.id)
				}
			}
			slices.Sort(lower)
			for _, nbr := range lower {
				nd.SleepUntil(sync + nbr)
				in := nd.Exchange(nil)
				for _, raw := range in {
					if m, ok := raw.(misDecideMsg); ok && m.join {
						state = misOut
						break
					}
				}
				if state != misUndecided {
					break
				}
			}
			if state == misUndecided {
				nd.SleepUntil(sync + id)
				announce := nd.Outbox()
				for pt := range announce {
					announce[pt] = misDecideMsg{join: true}
				}
				nd.Exchange(announce)
				state = misIn
			}
			stepDone(P+1, trace.StepMISCleanup)
		}

		inMIS[nd.Index()] = state == misIn
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Problem: "mis", InMIS: inMIS, Sim: res, Phases: P + 1}, nil
}
