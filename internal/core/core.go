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
	// Interceptor, if non-nil, is handed to the simulator's fault
	// injection hook surface (see sim.Interceptor and internal/chaos).
	// Nil keeps the paper's clean sleeping model.
	Interceptor sim.Interceptor
	// Chooser, if non-nil, is handed to the simulator's model-checking
	// branch-point hook (see sim.Chooser and internal/modelcheck). Nil
	// keeps today's fixed schedule bit-identically.
	Chooser sim.Chooser
	// Trace, if non-nil, records structured events — scheduler events
	// plus the algorithms' phase/step/merge markers — into the given
	// recorder (see internal/trace). Nil keeps recording off.
	Trace *trace.Recorder
	// Transport, if non-nil, carries every delivery as an encoded wire
	// frame through the given backend (see internal/transport and
	// sim.Config.Transport); the run's results stay byte-identical to
	// the in-memory run. Nil keeps delivery in-process.
	Transport transport.Transport
	// Metrics, if non-nil, receives the run's counters: awake rounds
	// per phase and per step, MOE probes and candidates, merge waves
	// and depth, and per-kind message tallies (see internal/metrics).
	Metrics *metrics.Registry
	// Cancel, if non-nil, aborts the run at the next busy-round
	// barrier once the channel is closed; the run returns
	// sim.ErrCanceled (wrapped). This is how internal/service enforces
	// per-request deadlines without leaking node goroutines. Nil keeps
	// runs uncancellable.
	Cancel <-chan struct{}
}

// simConfig translates the option fields shared with the simulator
// into a sim.Config for graph g.
func (o Options) simConfig(g *graph.Graph) sim.Config {
	return sim.Config{
		Graph:             g,
		Seed:              o.Seed,
		BitCap:            o.BitCap,
		RecordAwakeRounds: o.RecordAwakeRounds,
		AwakeBudget:       o.AwakeBudget,
		Interceptor:       o.Interceptor,
		Chooser:           o.Chooser,
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

// finishOutcome assembles and validates the outcome of a run.
func finishOutcome(g *graph.Graph, states []*ldt.State, res *sim.Result, phases int, fragsPerPhase []int) (*Outcome, error) {
	out := &Outcome{
		Result:            res,
		Phases:            phases,
		FragmentsPerPhase: fragsPerPhase,
		States:            states,
	}
	if err := ldt.Validate(g, states); err != nil {
		return out, fmt.Errorf("core: post-run LDT invariant violated: %w", err)
	}
	if ldt.FragmentCount(states) != 1 {
		return out, fmt.Errorf("%w: %d fragments remain after %d phases",
			ErrNotConverged, ldt.FragmentCount(states), phases)
	}
	out.MSTEdges = ldt.TreeEdges(g, states)
	if !graph.IsSpanningTree(g, out.MSTEdges) {
		return out, errors.New("core: output is not a spanning tree")
	}
	return out, nil
}

// phaseRecorder collects fragment IDs per phase without data races:
// each node writes only its own column.
type phaseRecorder struct {
	enabled bool
	frags   [][]int64 // frags[phase][node]
	n       int
}

func newPhaseRecorder(enabled bool, n, maxPhases int) *phaseRecorder {
	pr := &phaseRecorder{enabled: enabled, n: n}
	if enabled {
		pr.frags = make([][]int64, maxPhases)
		for i := range pr.frags {
			pr.frags[i] = make([]int64, n)
		}
	}
	return pr
}

func (pr *phaseRecorder) record(phase, node int, fragID int64) {
	if pr.enabled && phase < len(pr.frags) {
		pr.frags[phase][node] = fragID
	}
}

// counts returns the fragment count per executed phase. Nodes that
// halted before a phase keep fragment ID 0 in that row; rows that are
// entirely zero (never reached) are dropped.
func (pr *phaseRecorder) counts(executed int) []int {
	if !pr.enabled {
		return nil
	}
	var out []int
	for p := 0; p < executed && p < len(pr.frags); p++ {
		set := make(map[int64]bool)
		for _, f := range pr.frags[p] {
			if f != 0 {
				set[f] = true
			}
		}
		out = append(out, len(set))
	}
	return out
}
