// Package sleepmst is an open-source reproduction of "Distributed MST
// Computation in the Sleeping Model: Awake-Optimal Algorithms and
// Lower Bounds" (Augustine, Moses Jr., Pandurangan; PODC 2022).
//
// It provides awake-optimal distributed minimum-spanning-tree
// algorithms in the sleeping model — a synchronous CONGEST network in
// which nodes may sleep through rounds and only awake rounds are
// charged — together with the full substrate needed to run them: a
// deterministic sleeping-model simulator, the Labeled Distance Tree
// toolbox, graph generators (including the Theorem 4 lower-bound
// family G_rc), reference MSTs, and executable versions of the paper's
// lower-bound experiments.
//
// Quickstart:
//
//	g := sleepmst.RandomConnected(512, 1536, 42)
//	rep, err := sleepmst.Run(sleepmst.Randomized, g, sleepmst.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println("MST weight:", rep.MSTWeight())
//	fmt.Println("awake complexity:", rep.AwakeComplexity()) // O(log n)
//	fmt.Println("round complexity:", rep.RoundComplexity()) // O(n log n)
//
// The package is a thin facade over the implementation packages under
// internal/: it re-exports what the examples, the commands and the
// README use, and the types those names carry.
package sleepmst

import (
	"fmt"

	"sleepmst/internal/chaos"
	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/lowerbound"
	"sleepmst/internal/metrics"
	"sleepmst/internal/modelcheck"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// Graph is a weighted undirected network with CONGEST port numbering.
type Graph = graph.Graph

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// GRC is the Figure 1 lower-bound graph family.
type GRC = graph.GRC

// Options configures an algorithm run.
type Options = core.Options

// Outcome is the detailed result of a run (MST edges, metrics, phases).
type Outcome = core.Outcome

// Metrics is the simulator's measurement record.
type Metrics = sim.Result

// Algorithm selects one of the paper's algorithms.
type Algorithm int

const (
	// Randomized is Algorithm Randomized-MST (§2.2): O(log n) awake
	// w.h.p., O(n log n) rounds.
	Randomized Algorithm = iota
	// Deterministic is Algorithm Deterministic-MST (§2.3): O(log n)
	// awake, O(nN log n) rounds.
	Deterministic
	// LogStar is the Corollary 1 variant: O(log n log* n) awake,
	// O(n log n log* n) rounds, independent of the ID space.
	LogStar
	// Baseline is the traditional always-awake CONGEST comparator:
	// awake complexity equals round complexity.
	Baseline
	// ClassicGHS is an independent classic synchronous GHS
	// implementation in the traditional model (event-driven flood/echo
	// waves, chain merges via core detection, no sleeping).
	ClassicGHS
)

// String returns the CLI spelling of the algorithm name, as accepted
// by cmd/sleepsim -algo and cmd/mstbench -trace-algos.
func (a Algorithm) String() string {
	switch a {
	case Randomized:
		return "randomized"
	case Deterministic:
		return "deterministic"
	case LogStar:
		return "logstar"
	case Baseline:
		return "baseline"
	case ClassicGHS:
		return "ghs"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Runner returns the core entry point for the algorithm.
func (a Algorithm) Runner() func(*Graph, Options) (*Outcome, error) {
	switch a {
	case Randomized:
		return core.RunRandomized
	case Deterministic:
		return core.RunDeterministic
	case LogStar:
		return core.RunLogStar
	case Baseline:
		return core.RunBaseline
	case ClassicGHS:
		return core.RunClassicGHS
	default:
		return nil
	}
}

// ParseAlgorithm converts a CLI name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{Randomized, Deterministic, LogStar, Baseline, ClassicGHS} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("sleepmst: unknown algorithm %q (want randomized|deterministic|logstar|baseline|ghs)", s)
}

// Report wraps an Outcome with convenience accessors.
type Report struct {
	*Outcome
	Algorithm Algorithm
	Graph     *Graph
}

// AwakeComplexity returns the worst-case awake complexity max_v A_v.
func (r *Report) AwakeComplexity() int64 { return r.Result.MaxAwake() }

// RoundComplexity returns the traditional round complexity.
func (r *Report) RoundComplexity() int64 { return r.Result.Rounds }

// MSTWeight returns the total weight of the computed tree.
func (r *Report) MSTWeight() int64 { return graph.TotalWeight(r.MSTEdges) }

// Verified reports whether the computed tree equals the sequential
// reference MST (Kruskal).
func (r *Report) Verified() bool {
	return graph.SameEdgeSet(r.MSTEdges, graph.Kruskal(r.Graph))
}

// Run executes the selected algorithm on g.
func Run(a Algorithm, g *Graph, opts Options) (*Report, error) {
	run := a.Runner()
	if run == nil {
		return nil, fmt.Errorf("sleepmst: invalid algorithm %v", a)
	}
	out, err := run(g, opts)
	if err != nil {
		return nil, err
	}
	return &Report{Outcome: out, Algorithm: a, Graph: g}, nil
}

// Graph constructors -----------------------------------------------------

// Ring returns the cycle graph (the Theorem 3 topology).
func Ring(n int, seed int64) *Graph { return graph.Cycle(n, graph.GenConfig{Seed: seed}) }

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int, seed int64) *Graph {
	return graph.Grid(rows, cols, graph.GenConfig{Seed: seed})
}

// RandomConnected returns a connected random graph with ~m edges.
func RandomConnected(n, m int, seed int64) *Graph {
	return graph.RandomConnected(n, m, graph.GenConfig{Seed: seed})
}

// SensorNetwork returns a connected random geometric graph: n sensors
// in the unit square, links within the radius — the wireless topology
// that motivates the sleeping model.
func SensorNetwork(n int, radius float64, seed int64) *Graph {
	return graph.RandomGeometric(n, radius, graph.GenConfig{Seed: seed})
}

// NewGRC builds the Figure 1 lower-bound graph with r rows and c
// columns.
func NewGRC(r, c int, seed int64) (*GRC, error) {
	return graph.NewGRC(r, c, graph.GenConfig{Seed: seed})
}

// WithRandomIDs reassigns distinct random node IDs in [1, space]; the
// deterministic algorithm's round complexity scales with the max ID.
func WithRandomIDs(g *Graph, space, seed int64) *Graph { return graph.RandomIDs(g, space, seed) }

// Diameter returns the exact hop diameter of g.
func Diameter(g *Graph) int { return graph.Diameter(g) }

// Lower-bound experiments -------------------------------------------------

// DSDInstance re-exports the Theorem 4 set-disjointness encoding.
type DSDInstance = lowerbound.DSDInstance

// NewDSDInstance encodes a set-disjointness instance on a G_rc graph.
func NewDSDInstance(grc *GRC, x, y []bool) (*DSDInstance, error) {
	return lowerbound.NewDSDInstance(grc, x, y)
}

// SolveSDViaMST runs the full SD → DSD → CSS → MST reduction with the
// given algorithm.
func SolveSDViaMST(ins *DSDInstance, a Algorithm, opts Options) (disjoint bool, rep *Metrics, err error) {
	res, err := lowerbound.SolveSDViaMST(ins, a.Runner(), opts)
	if err != nil {
		return false, nil, err
	}
	return res.Disjoint, res.Outcome.Result, nil
}

// MSTPorts returns, for each node, the ports of its incident MST edges
// — the per-node output the model asks for ("every node knows which of
// its incident edges belong to the MST").
func MSTPorts(rep *Report) [][]int {
	out := make([][]int, len(rep.States))
	for v, st := range rep.States {
		out[v] = st.TreePorts()
	}
	return out
}

// Sleeping-model primitives ------------------------------------------------

// LeaderResult re-exports the leader-election result.
type LeaderResult = core.LeaderResult

// ElectLeader elects a unique leader known to every node in O(log n)
// awake rounds w.h.p.
func ElectLeader(g *Graph, opts Options) (*LeaderResult, error) {
	return core.ElectLeader(g, opts)
}

// Observability ------------------------------------------------------------

// TraceRecorder is the structured event recorder: set Options.Trace
// to one and the simulator and algorithms report node wake/sleep,
// message send/deliver/lost, phase and step boundaries, and fragment
// merges to it, and it keeps the run's first events in canonical
// order. Recording is off (and free) when Options.Trace is nil.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded simulator or algorithm event.
type TraceEvent = trace.Event

// TraceMeta describes a recorded trace: node count, rounds, event and
// dropped-event counts.
type TraceMeta = trace.Meta

// NewTraceRecorder returns an event recorder that keeps at most
// capacity events, the run's first ones; its trace's end line counts
// the rest as dropped (0 = the package default).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// Conformance ---------------------------------------------------------------

// ConformRunInfo is the run context handed to the conformance
// checker: algorithm name (enables its awake-budget envelope), node
// count, seed, and the chaos-mode relaxations.
type ConformRunInfo = conform.RunInfo

// ConformCheck is one invariant's outcome (pass, fail, or skip) in a
// conformance verdict.
type ConformCheck = conform.Check

// ConformVerdict is the result of replaying the invariant catalog
// over one trace; see CheckTraceConformance.
type ConformVerdict = conform.Verdict

// ConformSuite bundles a recorded run (trace plus optional MST-weight
// reference) for conformance assertion inside tests.
type ConformSuite = conform.Suite

// CheckTraceConformance replays the paper's invariant catalog over a
// recorded trace — awake budgets within the Table 1 envelopes, awake
// attribution, tails-into-heads merge waves, fragment decay, ≤ 4
// supergraph degree, message causality — and returns the per-check
// verdict (the same report as `mstbench -exp conform`).
func CheckTraceConformance(meta TraceMeta, events []TraceEvent, info ConformRunInfo) *ConformVerdict {
	return conform.CheckTrace(meta, events, info)
}

// MetricsRegistry is the deterministic counter registry: set
// Options.Metrics to one and the run reports awake rounds per phase
// and per step, MOE probes and candidates, merge waves and depth, and
// per-label message tallies. (The shorter name Metrics already names
// the simulator's measurement record above.)
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// Chaos runtime ------------------------------------------------------------

// Interceptor is the simulator's one adversary hook: seeded fault
// injection, or the model checker's branch choices. Set
// Options.Interceptor to perturb a run; leave it nil for the paper's
// clean sleeping model.
type Interceptor = sim.Interceptor

// ChaosOptions configures a seeded fault-injection policy: message
// drop, bounded delay and duplication, payload bit-flips, crash-stop,
// and adversarial oversleep.
type ChaosOptions = chaos.Options

// ChaosPolicy is a deterministic Interceptor built from ChaosOptions.
// The same policy value replays the same faults on every run.
type ChaosPolicy = chaos.Policy

// CrashEvent schedules one node's crash-stop round.
type CrashEvent = chaos.CrashEvent

// Classification is the oracle's verdict for one perturbed run.
type Classification = chaos.Classification

// NewChaosPolicy builds a deterministic fault-injection policy.
func NewChaosPolicy(opts ChaosOptions) *ChaosPolicy { return chaos.New(opts) }

// ClassifyRun maps a run's outcome and error to an oracle verdict,
// comparing any produced tree against the sequential reference MST.
func ClassifyRun(g *Graph, out *Outcome, err error) Classification {
	return chaos.Classify(g, out, err)
}

// Fault names one fault process for a sweep.
type Fault = chaos.Fault

// FaultDrop names the message-drop fault process for a sweep.
const FaultDrop = chaos.FaultDrop

// ChaosSweepConfig configures an outcome-frequency sweep; see
// ChaosSweep.
type ChaosSweepConfig = chaos.SweepConfig

// ChaosSweepResult holds one sweep's per-(algorithm, rate) cells.
type ChaosSweepResult = chaos.SweepResult

// ChaosRunners adapts algorithms for ChaosSweepConfig.Runners.
func ChaosRunners(algos ...Algorithm) []chaos.Runner {
	rs := make([]chaos.Runner, 0, len(algos))
	for _, a := range algos {
		rs = append(rs, chaos.Runner{Name: a.String(), Run: a.Runner()})
	}
	return rs
}

// ChaosSweep runs every configured algorithm against every fault rate
// and tallies oracle verdicts per cell.
func ChaosSweep(cfg ChaosSweepConfig) (*ChaosSweepResult, error) {
	return chaos.RunSweep(cfg)
}

// Problem suite -------------------------------------------------------------

// Problem is one distributed problem the simulator can run end to end:
// the algorithm, its awake-budget envelope, and its correctness
// oracle. Problems are addressed by qualified registry names ("mis",
// "mst/randomized", ...); see LookupProblem.
type Problem = problem.Problem

// ProblemResult is the output of one problem run: the common runtime
// accounting plus the problem-specific output (MST outcome or MIS
// membership vector).
type ProblemResult = problem.Result

// LookupProblem resolves a problem by qualified name ("mis",
// "mst/randomized", ...) or bare MST alias ("randomized", ...). An
// unknown name is an error listing every valid choice.
func LookupProblem(name string) (Problem, error) { return problem.Lookup(name) }

// RunMIS computes a maximal independent set of g in the sleeping model
// with O(log log n) worst-case awake complexity w.h.p.
func RunMIS(g *Graph, opts Options) (*ProblemResult, error) { return problem.RunMIS(g, opts) }

// MISViolations counts independence and maximality violations of the
// node set marked by inMIS; a valid MIS returns (0, 0).
func MISViolations(g *Graph, inMIS []bool) (notIndependent, notMaximal int64) {
	return graph.MISViolations(g, inMIS)
}

// NodeAvgAwake returns the node-averaged awake complexity recorded in
// a run's (or merged sweep's) metrics registry: the awake/node-avg/sum
// counter divided by awake/node-avg/nodes.
func NodeAvgAwake(r *MetricsRegistry) float64 { return metrics.NodeAvgAwake(r) }

// MISClassification is the MIS outcome oracle's verdict for one
// perturbed run.
type MISClassification = chaos.MISClassification

// ClassifyMISRun maps an MIS run's membership vector and error to an
// oracle verdict.
func ClassifyMISRun(g *Graph, inMIS []bool, err error) MISClassification {
	return chaos.ClassifyMIS(g, inMIS, err)
}

// Model checking ------------------------------------------------------------

// ModelCheckConfig parameterizes a bounded exhaustive exploration of
// one problem on one small topology; see ModelCheck.
type ModelCheckConfig = modelcheck.Config

// ModelCheckVerdict is the exploration's schema-versioned result:
// coverage counters (schedules, runs, distinct states, memo hits,
// pruned branches) plus deviation-minimal counterexamples.
type ModelCheckVerdict = modelcheck.Verdict

// ModelCheck exhaustively explores every admissible schedule of the
// problem on the given small topology up to the configured deviation
// bound, checking the conformance invariant catalog plus the
// problem's oracle on every schedule (the same engine as `mstbench
// -exp modelcheck`). Violations land in the verdict; the returned
// error reports infrastructure failures only.
func ModelCheck(cfg ModelCheckConfig) (*ModelCheckVerdict, error) {
	return modelcheck.Explore(cfg)
}

// Transports ----------------------------------------------------------------

// Transport is a pluggable wire backend: with Options.Transport set,
// every same-round delivery travels as an encoded binary frame
// through the backend instead of staying in scheduler memory, while
// the simulator keeps every model decision (sleeping-receiver losses,
// the CONGEST bit cap, awake metering). Results are byte-identical to
// the in-memory run. See internal/transport.
type Transport = transport.Transport

// ParseTransport converts a CLI transport name into a fresh backend:
// "" or "none" mean in-memory delivery (nil Transport), "tcp" real
// loopback sockets.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "", "none":
		return nil, nil
	case "tcp":
		return transport.NewTCP(transport.TCPConfig{}), nil
	default:
		return nil, fmt.Errorf("sleepmst: unknown transport %q (want none or tcp)", s)
	}
}
