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
// internal/; everything a downstream user needs is re-exported here.
package sleepmst

import (
	"bufio"
	"fmt"
	"io"

	"sleepmst/internal/chaos"
	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/lowerbound"
	"sleepmst/internal/metrics"
	"sleepmst/internal/modelcheck"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
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

// ReferenceMST returns the unique MST via sequential Kruskal.
func ReferenceMST(g *Graph) []Edge { return graph.Kruskal(g) }

// TotalWeight sums the weights of an edge set.
func TotalWeight(edges []Edge) int64 { return graph.TotalWeight(edges) }

// Graph constructors -----------------------------------------------------

// NewGraph builds a graph from explicit edges; see graph.New.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// Path returns the path graph with distinct random weights.
func Path(n int, seed int64) *Graph { return graph.Path(n, graph.GenConfig{Seed: seed}) }

// Ring returns the cycle graph (the Theorem 3 topology).
func Ring(n int, seed int64) *Graph { return graph.Cycle(n, graph.GenConfig{Seed: seed}) }

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int, seed int64) *Graph {
	return graph.Grid(rows, cols, graph.GenConfig{Seed: seed})
}

// Complete returns the complete graph K_n.
func Complete(n int, seed int64) *Graph { return graph.Complete(n, graph.GenConfig{Seed: seed}) }

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

// LDTState re-exports the per-node Labeled Distance Tree state for
// advanced users building their own sleeping-model procedures.
type LDTState = ldt.State

// Sleeping-model primitives ------------------------------------------------

// LeaderResult re-exports the leader-election result.
type LeaderResult = core.LeaderResult

// AggregateResult re-exports the aggregation/broadcast result.
type AggregateResult = core.AggregateResult

// ElectLeader elects a unique leader known to every node in O(log n)
// awake rounds w.h.p.
func ElectLeader(g *Graph, opts Options) (*LeaderResult, error) {
	return core.ElectLeader(g, opts)
}

// AggregateMin computes the global minimum of one value per node and
// delivers it to every node in O(log n) awake rounds w.h.p.
func AggregateMin(g *Graph, values []int64, opts Options) (*AggregateResult, error) {
	return core.AggregateMin(g, values, opts)
}

// BroadcastFrom delivers the source node's value to every node in
// O(log n) awake rounds w.h.p.
func BroadcastFrom(g *Graph, source int, value int64, opts Options) (*AggregateResult, error) {
	return core.BroadcastFrom(g, source, value, opts)
}

// Observability ------------------------------------------------------------

// TraceRecorder is the structured event recorder: set Options.Trace
// to one and the simulator and algorithms record node wake/sleep,
// message send/deliver/lost, phase and step boundaries, and fragment
// merges into per-stream ring buffers. Recording is off (and free)
// when Options.Trace is nil.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded simulator or algorithm event.
type TraceEvent = trace.Event

// TraceMeta describes a recorded trace: node count, rounds, event and
// dropped-event counts.
type TraceMeta = trace.Meta

// TraceSummary aggregates a trace into per-phase awake budgets and
// message totals; see SummarizeTrace.
type TraceSummary = trace.Summary

// NewTraceRecorder returns an event recorder with the given total
// ring capacity in events (0 = the package default).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// SummarizeTrace reduces a trace to its per-phase awake-budget table
// (the same report as `mstbench -exp trace`).
func SummarizeTrace(meta TraceMeta, events []TraceEvent) TraceSummary {
	return trace.Summarize(meta, events)
}

// ReadTraceJSONL parses a JSONL trace written by
// TraceRecorder.WriteJSONL back into its meta record and events.
func ReadTraceJSONL(r io.Reader) (TraceMeta, []TraceEvent, error) {
	return trace.ReadJSONL(r)
}

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
// per-kind message tallies. (The shorter name Metrics already names
// the simulator's measurement record above.)
type MetricsRegistry = metrics.Registry

// Metric is one named counter (or running max) snapshotted from a
// MetricsRegistry.
type Metric = metrics.Metric

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// MergeMetricsRegistries folds per-worker registries into one in
// deterministic order; use it to aggregate sweeps (every counter is
// commutative, so the result is worker-count independent).
func MergeMetricsRegistries(regs []*MetricsRegistry) *MetricsRegistry {
	return metrics.MergeAll(regs)
}

// Chaos runtime ------------------------------------------------------------

// Interceptor is the simulator's fault-injection hook surface. Set
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

// Oracle verdicts.
const (
	CorrectMST       = chaos.CorrectMST
	WrongTree        = chaos.WrongTree
	Disconnected     = chaos.Disconnected
	Deadlock         = chaos.Deadlock
	AwakeBudgetBlown = chaos.AwakeBudgetBlown
)

// NewChaosPolicy builds a deterministic fault-injection policy.
func NewChaosPolicy(opts ChaosOptions) *ChaosPolicy { return chaos.New(opts) }

// ClassifyRun maps a run's outcome and error to an oracle verdict,
// comparing any produced tree against the sequential reference MST.
func ClassifyRun(g *Graph, out *Outcome, err error) Classification {
	return chaos.Classify(g, out, err)
}

// Fault names one fault process for a sweep.
type Fault = chaos.Fault

// Sweepable fault kinds.
const (
	FaultDrop      = chaos.FaultDrop
	FaultDelay     = chaos.FaultDelay
	FaultDup       = chaos.FaultDup
	FaultFlip      = chaos.FaultFlip
	FaultCrash     = chaos.FaultCrash
	FaultOversleep = chaos.FaultOversleep
)

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

// ProblemNames returns the qualified problem registry names, sorted.
func ProblemNames() []string { return problem.Names() }

// RunMIS computes a maximal independent set of g in the sleeping model
// with O(log log n) worst-case awake complexity w.h.p.
func RunMIS(g *Graph, opts Options) (*ProblemResult, error) { return problem.RunMIS(g, opts) }

// MISAwakeBudget returns the calibrated per-node awake envelope for an
// n-node MIS run (BudgetCMIS · (log2 log2 n + 1), rounded up).
func MISAwakeBudget(n int) (int64, bool) { return problem.MISAwakeBudget(n) }

// MISViolations counts independence and maximality violations of the
// node set marked by inMIS; a valid MIS returns (0, 0).
func MISViolations(g *Graph, inMIS []bool) (notIndependent, notMaximal int64) {
	return graph.MISViolations(g, inMIS)
}

// MISCheck builds the MIS-validity conformance check from the
// violation counts returned by MISViolations, for appending to a
// ConformVerdict.
func MISCheck(notIndependent, notMaximal int64) ConformCheck {
	return conform.MISCheck(notIndependent, notMaximal)
}

// NodeAvgAwake returns the node-averaged awake complexity recorded in
// a run's (or merged sweep's) metrics registry: the awake/node-avg/sum
// counter divided by awake/node-avg/nodes.
func NodeAvgAwake(r *MetricsRegistry) float64 { return metrics.NodeAvgAwake(r) }

// MISClassification is the MIS outcome oracle's verdict for one
// perturbed run.
type MISClassification = chaos.MISClassification

// MIS oracle verdicts.
const (
	CorrectMIS     = chaos.CorrectMIS
	NotIndependent = chaos.NotIndependent
	NotMaximal     = chaos.NotMaximal
	MISDeadlock    = chaos.MISDeadlock
	MISAwakeBlown  = chaos.MISAwakeBlown
)

// ClassifyMISRun maps an MIS run's membership vector and error to an
// oracle verdict.
func ClassifyMISRun(g *Graph, inMIS []bool, err error) MISClassification {
	return chaos.ClassifyMIS(g, inMIS, err)
}

// Model checking ------------------------------------------------------------

// Chooser is the simulator's deterministic branch-point hook: wake
// scheduling, within-round message-routing order, and per-message
// fault injection. A nil Options.Chooser (the default) is
// bit-identical to the production scheduler; the bounded model
// checker drives a Chooser to explore every admissible branch.
type Chooser = sim.Chooser

// ModelCheckConfig parameterizes a bounded exhaustive exploration of
// one problem on one small topology; see ModelCheck.
type ModelCheckConfig = modelcheck.Config

// ModelCheckVerdict is the exploration's schema-versioned result:
// coverage counters (schedules, runs, distinct states, memo hits,
// pruned branches) plus deviation-minimal counterexamples.
type ModelCheckVerdict = modelcheck.Verdict

// ModelCheckViolation is one schedule on which an invariant or the
// problem's correctness oracle failed, with its replayable choice
// prefix and counterexample trace.
type ModelCheckViolation = modelcheck.Violation

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

// TransportStats is the physical wire accounting of one run: frames,
// bytes, dials, retries, injected faults.
type TransportStats = transport.Stats

// TCPTransportConfig parameterizes NewTCPTransport; the zero value
// uses the package defaults (loopback, 8 retries, exponential
// backoff).
type TCPTransportConfig = transport.TCPConfig

// TransportFaultConfig parameterizes WithTransportFaults: seeded
// drop/delay probabilities and the retry budget that masks injected
// drops.
type TransportFaultConfig = transport.FaultConfig

// NewTCPTransport returns the TCP backend: every node a long-lived
// server on a loopback ephemeral port, with per-link retry and
// graceful shutdown.
func NewTCPTransport(cfg TCPTransportConfig) Transport { return transport.NewTCP(cfg) }

// WithTransportFaults wraps a backend with deterministic wire-level
// fault injection (the chaos drop/delay policies reinterpreted as
// transport faults); injected drops are masked by the retry budget,
// so the run's outcome is unchanged while the retry path is
// exercised.
func WithTransportFaults(inner Transport, cfg TransportFaultConfig) Transport {
	return transport.WithFaults(inner, cfg)
}

// TransportStatsOf extracts the wire accounting from a backend, ok =
// false when the backend does not meter traffic.
func TransportStatsOf(tx Transport) (TransportStats, bool) {
	if st, ok := tx.(transport.Statser); ok {
		return st.TransportStats(), true
	}
	return TransportStats{}, false
}

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

// Persistent service ------------------------------------------------------

// Service is the persistent concurrent MST service: a request
// scheduler over a bounded worker pool with explicit admission
// control, per-request isolation (seed, transport, trace, deadline),
// and a deterministic merged metrics registry. See internal/service
// and DESIGN.md §14.
type Service = service.Service

// ServiceConfig parameterizes NewService: worker count, admission
// queue depth, default per-request deadline, and per-request caps.
type ServiceConfig = service.Config

// ServiceRequest is one certified-computation request submitted to a
// Service, in process or over the wire protocol.
type ServiceRequest = service.Request

// ServiceResponse is the service's answer to one request: a status
// code, the JSON artifact for completed runs, and optionally the full
// JSONL trace for client-side re-certification.
type ServiceResponse = service.Response

// ServiceStatus classifies one request's outcome (ok, violation,
// invalid, overloaded, deadline, shutting-down, internal).
type ServiceStatus = service.Status

// ServiceArtifact is the decoded per-request JSON artifact: verdict,
// run summary, and wire accounting.
type ServiceArtifact = service.Artifact

// ServiceServer exposes a Service over length-prefixed request and
// response frames on TCP connections, with pipelining and a graceful
// drain; mstserve -serve is the daemon around it.
type ServiceServer = service.Server

// NewService starts a persistent service; pair it with
// Service.Drain.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceServer wraps a service for the wire protocol; run it with
// ServiceServer.Serve and stop it with ServiceServer.Shutdown.
func NewServiceServer(svc *Service) *ServiceServer { return service.NewServer(svc) }

// WriteServiceRequest writes one request frame — the client side of
// the service wire protocol.
func WriteServiceRequest(w io.Writer, req ServiceRequest) error {
	return service.WriteRequest(w, req)
}

// ReadServiceResponse reads one response frame off a buffered client
// connection.
func ReadServiceResponse(br *bufio.Reader) (ServiceResponse, error) {
	return service.ReadResponse(br)
}
