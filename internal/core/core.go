// Package core implements the paper's contribution: awake-optimal
// distributed MST algorithms in the sleeping model.
//
//   - RunRandomized — Algorithm Randomized-MST (§2.2): O(log n) awake
//     complexity w.h.p., O(n log n) rounds.
//   - RunDeterministic — Algorithm Deterministic-MST (§2.3): O(log n)
//     awake complexity, O(nN log n) rounds (N = max ID).
//   - RunLogStar — the Corollary 1 variant: Fast-Awake-Coloring
//     replaced by a Cole–Vishkin style O(log* n)-iteration coloring,
//     giving O(log n log* n) awake and O(n log n log* n) rounds.
//   - RunBaseline — the traditional always-awake CONGEST comparator:
//     the same GHS-style execution, but nodes are charged for every
//     round up to their local termination, as in the standard model.
//
// All algorithms maintain the paper's Forest of Labeled Distance Trees
// invariant between phases and produce the unique MST; drivers verify
// connectivity up front and convergence afterwards.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/metrics"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// Options configures an MST run.
type Options struct {
	// Seed seeds all node-private randomness.
	Seed int64
	// MaxPhases overrides the paper's phase bound (0 = default).
	MaxPhases int
	// BitCap, if positive, enforces a per-message size cap in bits
	// (CONGEST enforcement); see DefaultBitCap.
	BitCap int
	// AwakeBudget, if positive, fails the run as soon as any node
	// exceeds that many awake rounds — runtime enforcement of the
	// O(log n) awake claims.
	AwakeBudget int64
	// RecordAwakeRounds records each node's awake rounds for traces.
	RecordAwakeRounds bool
	// RecordPhases collects the fragment count after every phase (the
	// Lemma 1 / Lemma 5 decay experiment).
	RecordPhases bool
	// AcceptBudget overrides the deterministic algorithms'
	// valid-incoming-MOE budget (the paper's 3) for ablation studies.
	// 0 means the default; values must stay in [1, 3] so the
	// supergraph degree bound 4 and the 5-color palette still work.
	AcceptBudget int
	// Interceptor, if non-nil, is handed to the simulator's adversary
	// hook (see sim.Interceptor): a seeded chaos policy
	// (internal/chaos) or the model checker's replayer
	// (internal/modelcheck). Nil keeps the paper's clean sleeping model.
	Interceptor sim.Interceptor
	// Trace, if non-nil, receives the run's structured events —
	// scheduler events plus the algorithms' phase/step/merge markers —
	// as they happen (see trace.Sink): a *trace.Orderer releases them
	// in canonical order, a *trace.Recorder keeps the first ones. Nil
	// keeps tracing off.
	Trace trace.Sink
	// Transport, if non-nil, carries every delivery as an encoded wire
	// frame through the given backend (see internal/transport and
	// sim.Config.Transport); the run's results stay byte-identical to
	// the in-memory run. Nil keeps delivery in-process.
	Transport transport.Transport
	// Metrics, if non-nil, receives the run's counters: awake rounds
	// per phase and per step, MOE probes and candidates, merge waves
	// and depth, and per-label message tallies (see internal/metrics).
	Metrics *metrics.Registry
	// Cancel, if non-nil, aborts the run at the next busy-round
	// barrier once the channel is closed; the run returns
	// sim.ErrCanceled (wrapped). This is how internal/service enforces
	// per-request deadlines without leaking node goroutines. Nil keeps
	// runs uncancellable.
	Cancel <-chan struct{}
}

// SimConfig translates the option fields shared with the simulator
// into a sim.Config for graph g. Every runner over Options builds its
// sim.Config here, so a field added to both reaches all of them.
func (o Options) SimConfig(g *graph.Graph) sim.Config {
	return sim.Config{
		Graph:             g,
		Seed:              o.Seed,
		BitCap:            o.BitCap,
		RecordAwakeRounds: o.RecordAwakeRounds,
		AwakeBudget:       o.AwakeBudget,
		Interceptor:       o.Interceptor,
		Trace:             o.Trace,
		Metrics:           o.Metrics,
		Transport:         o.Transport,
		Cancel:            o.Cancel,
	}
}

// acceptBudget resolves and validates Options.AcceptBudget.
func (o Options) acceptBudget() (int64, error) {
	if o.AcceptBudget == 0 {
		return MaxValidIncomingMOEs, nil
	}
	if o.AcceptBudget < 1 || o.AcceptBudget > MaxValidIncomingMOEs {
		return 0, fmt.Errorf("core: accept budget %d outside [1, %d]", o.AcceptBudget, MaxValidIncomingMOEs)
	}
	return int64(o.AcceptBudget), nil
}

// DefaultBitCap returns a CONGEST message cap of 16·⌈log₂ max(n, maxID,
// maxWeight)⌉ bits — the paper's O(log n)-bit messages with an explicit
// constant.
func DefaultBitCap(g *graph.Graph) int {
	max := int64(g.N())
	if id := g.MaxID(); id > max {
		max = id
	}
	for _, e := range g.Edges() {
		if e.Weight > max {
			max = e.Weight
		}
	}
	return 16 * bitlen(max)
}

func bitlen(x int64) int {
	n := 1
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// Outcome reports a completed MST computation.
type Outcome struct {
	// MSTEdges is the computed spanning tree (n-1 edges).
	MSTEdges []graph.Edge
	// Result holds the runtime metrics (awake complexity, rounds,
	// messages, bits).
	Result *sim.Result
	// Phases is the number of phases executed.
	Phases int
	// FragmentsPerPhase[p] is the fragment count after phase p
	// (only if Options.RecordPhases).
	FragmentsPerPhase []int
	// States holds the final per-node LDT states (the single fragment
	// tree = the MST, rooted at the final root).
	States []*ldt.State
}

// ErrNotConverged is returned when the phase budget was exhausted with
// more than one fragment left (w.h.p. never for the paper's bounds).
var ErrNotConverged = errors.New("core: algorithm did not converge to a single fragment")

// RandomizedPhaseBound returns the paper's phase count for
// Randomized-MST: 4⌈log_{4/3} n⌉ + 1.
func RandomizedPhaseBound(n int) int {
	if n <= 1 {
		return 1
	}
	return 4*int(math.Ceil(math.Log(float64(n))/math.Log(4.0/3.0))) + 1
}

// DeterministicPhaseBound returns the phase cap for Deterministic-MST.
// The paper's worst-case bound is ⌈log_{240000/239999} n⌉ + 240000;
// since every phase with ≥ 2 fragments merges at least one fragment,
// n phases always suffice, so we cap at the smaller of the two.
func DeterministicPhaseBound(n int) int {
	paper := int(math.Ceil(math.Log(float64(n))/math.Log(240000.0/239999.0))) + 240000
	if n+1 < paper {
		return n + 1
	}
	return paper
}

// checkInput validates the graph for MST computation.
func checkInput(g *graph.Graph) error {
	if g == nil {
		return errors.New("core: nil graph")
	}
	if !graph.IsConnected(g) {
		return errors.New("core: graph must be connected")
	}
	return nil
}

// runPhases is the one driver of the LDT-phase algorithms. Every node
// runs phase from its singleton state in windows of phaseBlocks
// blocks laid end to end from round 1, until its fragment spans the
// graph (phase reports done) or bound phases have run; opts.MaxPhases,
// if positive, overrides bound. With after set, a node whose fragment
// spans the graph runs after from the first round of the next window
// (every node finishes in the same phase, so the window is globally
// known), and a node that ran out of phases fails the run instead.
// The returned outcome carries the states, the phase count and, with
// opts.RecordPhases, the fragment count after each phase; the MST
// drivers validate it with finishOutcome.
func runPhases(g *graph.Graph, opts Options, bound int, phaseBlocks int64,
	phase func(c *nodeCtx, start int64) (done bool),
	after func(c *nodeCtx, start int64) error) (*Outcome, error) {
	if opts.MaxPhases > 0 {
		bound = opts.MaxPhases
	}
	states := ldt.SingletonStates(g)
	phasesRun := make([]int, g.N())
	var frags [][]int64 // frags[node][p]: the node's fragment after phase p+1
	if opts.RecordPhases {
		frags = make([][]int64, g.N())
	}
	res, err := sim.Run(opts.SimConfig(g), func(nd *sim.Node) error {
		v := nd.Index()
		c := newNodeCtx(nd, states[v])
		start, done := int64(1), false
		for p := 1; p <= bound && !done; p++ {
			c.beginPhase(p)
			done = phase(c, start)
			start += phaseBlocks * c.blk
			phasesRun[v] = p
			if frags != nil {
				frags[v] = append(frags[v], c.st.FragID)
			}
		}
		switch {
		case after == nil:
			return nil
		case !done:
			return errors.New("mst construction did not converge")
		}
		return after(c, start)
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{Result: res, Phases: slices.Max(phasesRun), States: states}
	if frags != nil {
		out.FragmentsPerPhase = make([]int, out.Phases)
		for p := range out.FragmentsPerPhase {
			// Nodes that halted before phase p+1 have no entry for it.
			set := make(map[int64]bool)
			for _, f := range frags {
				if p < len(f) && f[p] != 0 {
					set[f[p]] = true
				}
			}
			out.FragmentsPerPhase[p] = len(set)
		}
	}
	return out, nil
}

// finishOutcome validates the outcome of an MST run and fills in its
// tree edges.
func finishOutcome(g *graph.Graph, out *Outcome) (*Outcome, error) {
	if err := ldt.Validate(g, out.States); err != nil {
		return out, fmt.Errorf("core: post-run LDT invariant violated: %w", err)
	}
	if ldt.FragmentCount(out.States) != 1 {
		return out, fmt.Errorf("%w: %d fragments remain after %d phases",
			ErrNotConverged, ldt.FragmentCount(out.States), out.Phases)
	}
	out.MSTEdges = ldt.TreeEdges(g, out.States)
	if !graph.IsSpanningTree(g, out.MSTEdges) {
		return out, errors.New("core: output is not a spanning tree")
	}
	return out, nil
}
