// Package service is the persistent concurrent MST service: a request
// scheduler that runs many certified sleeping-model computations at
// once over a bounded worker pool, with explicit admission control
// and per-request isolation.
//
// One Service owns a sweep.Pool. Every admitted request runs as its
// own cell — own graph, seed, trace recorder, metrics registry, and
// (optionally) its own wire backend — and produces a
// JSON Artifact holding the conformance verdict, the run summary, and
// any wire accounting. Per-request registries are folded into one
// service-level metrics registry; because every counter commutes, the
// merged registry is byte-identical for any worker count and any
// completion order, which is the service's determinism contract: a
// fixed-seed request mix yields identical per-request verdicts and
// identical merged metrics whether it is served by one worker or
// eight.
//
// Admission is explicit, never implicit queueing delay: a full queue
// rejects with StatusOverloaded, an invalid request with
// StatusInvalid, a draining service with StatusShuttingDown. An
// admitted request is bounded by a deadline whose clock starts at
// admission (queue wait counts) and that cancels the running cell at
// a round barrier (sim.ErrCanceled), so a stuck or oversized run can
// neither wedge a worker forever nor leak its node programs.
//
// Server (server.go) exposes the same Submit surface over a
// length-prefixed request/response wire protocol (wire.go);
// cmd/mstserve -serve is the daemon around it and cmd/mstload the
// closed-loop client.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
	"sleepmst/internal/sweep"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// Service defaults; every Config zero field falls back to one.
const (
	// DefaultQueueDepth bounds the admission queue (waiting requests;
	// requests a worker already picked up do not count).
	DefaultQueueDepth = 64
	// DefaultDeadline bounds one request end to end: the clock starts
	// at admission, so time spent waiting in the queue counts against
	// it.
	DefaultDeadline = 2 * time.Minute
	// DefaultMaxN caps the per-request node count at admission.
	DefaultMaxN = 4096
	// DefaultTraceCap is the per-request trace-recorder capacity when
	// the request does not choose one.
	DefaultTraceCap = 1 << 18
	// DefaultMaxTraceCap caps the capacity a request may choose.
	DefaultMaxTraceCap = 1 << 20
)

// Config parameterizes a Service. The zero value is usable: every
// field falls back to the package default.
type Config struct {
	// Workers is the worker-pool size (0 or negative = GOMAXPROCS; 1
	// serializes requests, the determinism control).
	Workers int
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	QueueDepth int
	// DefaultDeadline bounds requests that do not set their own
	// deadline (0 = DefaultDeadline).
	DefaultDeadline time.Duration
	// MaxN caps the per-request node count (0 = DefaultMaxN).
	MaxN int
	// MaxTraceCap caps the per-request trace capacity (0 =
	// DefaultMaxTraceCap).
	MaxTraceCap int
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultDeadline
	}
	if c.MaxN <= 0 {
		c.MaxN = DefaultMaxN
	}
	if c.MaxTraceCap <= 0 {
		c.MaxTraceCap = DefaultMaxTraceCap
	}
	return c
}

// edgesPerNode derives the per-request edge cap from the node cap: a
// request may build at most edgesPerNode·MaxN edges. Graph build runs
// before the first round barrier, where the deadline cannot reach it,
// so admission must bound it.
const edgesPerNode = 8

// Service schedules certified-computation requests over a bounded
// worker pool. Create with New, stop with Drain; Submit is safe for
// concurrent use from any number of goroutines.
type Service struct {
	cfg  Config
	pool *sweep.Pool
	reg  *metrics.Registry
}

// New starts a service with cfg.Workers workers and a bounded
// admission queue. Pair every New with a Drain.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:  cfg,
		pool: sweep.NewPool(sweep.Config{Workers: cfg.Workers}, cfg.QueueDepth),
		reg:  metrics.New(),
	}
}

// Metrics returns the live service-level registry: per-request run
// registries folded together plus the service/* request accounting.
// Snapshot it after Drain for a stable view.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Drain stops admission (new Submits return StatusShuttingDown),
// finishes every admitted request, and returns once the pool is idle.
// Safe to call more than once.
func (s *Service) Drain() { s.pool.Drain() }

// Submit runs one request to completion — through validation,
// admission, execution, and certification — and returns its response.
// It blocks the calling goroutine for the request's lifetime (the
// closed-loop client model); concurrency comes from concurrent
// callers, capacity from the worker pool.
func (s *Service) Submit(req Request) Response {
	p, detail := s.validate(&req)
	if detail != "" {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid, Detail: detail}, "")
	}
	// The deadline clock starts here, before admission, so queue wait
	// counts against it: a request cannot spend QueueDepth x deadline
	// waiting for a worker.
	deadline := req.Deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	cancel := make(chan struct{})
	timer := time.AfterFunc(deadline, func() { close(cancel) })
	defer timer.Stop()
	done := make(chan Response, 1)
	err := s.pool.TrySubmit(func() { done <- s.execute(req, p, deadline, cancel) })
	switch {
	case errors.Is(err, sweep.ErrPoolSaturated):
		return s.finish(req, Response{ID: req.ID, Status: StatusOverloaded,
			Detail: fmt.Sprintf("admission queue full (%d waiting requests)", s.cfg.QueueDepth)}, "")
	case err != nil:
		return s.finish(req, Response{ID: req.ID, Status: StatusShuttingDown,
			Detail: "service is draining"}, "")
	}
	return <-done
}

// validate checks the request against the admission contract and
// resolves the problem. A non-empty detail string is the rejection
// reason (StatusInvalid).
func (s *Service) validate(req *Request) (problem.Problem, string) {
	p, err := problem.Lookup(req.Problem)
	if err != nil {
		return nil, err.Error()
	}
	if !validGraphKind(req.Graph) {
		return nil, fmt.Sprintf("unknown graph kind %q (want %s)", req.Graph, GraphKindList)
	}
	if req.N < 1 || req.N > s.cfg.MaxN {
		return nil, fmt.Sprintf("n=%d outside the admitted range [1, %d]", req.N, s.cfg.MaxN)
	}
	if req.M < 0 || req.Rows < 0 {
		return nil, fmt.Sprintf("negative m=%d or rows=%d", req.M, req.Rows)
	}
	if req.Graph == "ring" && req.N < 3 {
		return nil, fmt.Sprintf("ring requires n >= 3, got %d", req.N)
	}
	if req.Rows > req.N {
		return nil, fmt.Sprintf("rows=%d exceeds n=%d", req.Rows, req.N)
	}
	if req.Graph == "sensor" && (math.IsNaN(req.Radius) || req.Radius < 0 || req.Radius > 2) {
		return nil, fmt.Sprintf("sensor radius %v outside [0, 2]", req.Radius)
	}
	if bound, limit := edgeBound(req.Graph, req.N, req.M, req.Radius), s.maxEdges(); bound > float64(limit) {
		return nil, fmt.Sprintf("%s graph on n=%d would build up to %.0f edges, over the admitted cap %d",
			req.Graph, req.N, bound, limit)
	}
	switch req.Transport {
	case "", "none", "tcp":
	default:
		return nil, fmt.Sprintf("unknown transport %q (want none or tcp)", req.Transport)
	}
	if req.TraceCap < 0 || req.TraceCap > s.cfg.MaxTraceCap {
		return nil, fmt.Sprintf("trace cap %d outside [0, %d]", req.TraceCap, s.cfg.MaxTraceCap)
	}
	if req.Deadline < 0 {
		return nil, fmt.Sprintf("negative deadline %v", req.Deadline)
	}
	return p, ""
}

// execute runs one admitted request as an isolated cell on a pool
// worker and certifies the result. The deadline clock started in
// Submit; cancel closes when it expires. A panic anywhere in the cell
// is recovered into StatusInternal so no request can kill the worker
// pool (and with it the daemon).
func (s *Service) execute(req Request, p problem.Problem, deadline time.Duration, cancel <-chan struct{}) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = s.finish(req, Response{ID: req.ID, Status: StatusInternal,
				Detail: fmt.Sprintf("panic in request cell: %v", r)}, "")
		}
	}()
	select {
	case <-cancel:
		// The deadline expired while the request sat in the admission
		// queue; don't start work that is already overdue.
		return s.finish(req, Response{ID: req.ID, Status: StatusDeadline,
			Detail: fmt.Sprintf("deadline %v exceeded while queued", deadline)}, "")
	default:
	}
	g, err := BuildGraph(req.Graph, req.N, req.M, req.Rows, req.Radius, req.Seed)
	if err != nil {
		return s.finish(req, Response{ID: req.ID, Status: StatusInternal, Detail: err.Error()}, "")
	}
	// Validation bounds the request's N and expected edge count, but
	// derived topologies (grid rounds n up to rows*cols, a sensor graph
	// is random) can build more than asked for; re-check the built size
	// against the same admission caps.
	if g.N() > s.cfg.MaxN {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid,
			Detail: fmt.Sprintf("built %s graph has %d nodes, over the admitted cap %d", req.Graph, g.N(), s.cfg.MaxN)}, "")
	}
	if g.M() > s.maxEdges() {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid,
			Detail: fmt.Sprintf("built %s graph has %d edges, over the admitted cap %d", req.Graph, g.M(), s.maxEdges())}, "")
	}
	var tx transport.Transport
	if req.Transport == "tcp" {
		tx = transport.NewTCP(transport.TCPConfig{})
		defer tx.Close()
	}
	traceCap := req.TraceCap
	if traceCap == 0 {
		traceCap = DefaultTraceCap
	}

	rec := trace.NewRecorder(traceCap)
	reg := metrics.New()
	r, err := p.Run(g, core.Options{
		Seed:      req.Seed,
		Trace:     rec,
		Metrics:   reg,
		Transport: tx,
		Cancel:    cancel,
	})
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			return s.finish(req, Response{ID: req.ID, Status: StatusDeadline,
				Detail: fmt.Sprintf("deadline %v exceeded: %v", deadline, err)}, "")
		}
		return s.finish(req, Response{ID: req.ID, Status: StatusInternal, Detail: err.Error()}, "")
	}

	// Order the trace once: the verdict and the JSONL render share it.
	meta, events := rec.Meta(), rec.Events()
	verdict := conform.Suite{
		Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: req.Seed, Budget: p.Budget},
		Meta:   meta,
		Events: events,
		Extra:  []conform.Check{p.ConformCheck(g, r)},
	}.Verdict()
	verify := p.Verify(g, r)

	a := Artifact{
		Schema:    ArtifactSchema,
		ID:        req.ID,
		Problem:   p.Name(),
		Graph:     req.Graph,
		N:         g.N(),
		M:         g.M(),
		Seed:      req.Seed,
		Transport: req.Transport,
		Verdict:   verdict,
		Run: RunSummary{
			AwakeMax:     r.Sim.MaxAwake(),
			AwakeAvg:     r.Sim.MeanAwake(),
			Rounds:       r.Sim.Rounds,
			BusyRounds:   r.Sim.BusyRounds,
			Sent:         r.Sim.MessagesSent,
			Delivered:    r.Sim.MessagesDelivered,
			Lost:         r.Sim.MessagesLost,
			BitsSent:     r.Sim.BitsSent,
			Phases:       r.Phases,
			VerifyPassed: verify == nil,
		},
	}
	if r.Outcome != nil {
		a.Run.MSTWeight = graph.TotalWeight(r.Outcome.MSTEdges)
	}
	if st, ok := tx.(transport.Statser); ok {
		w := st.TransportStats()
		a.Wire = &WireSummary{
			FramesSent:     w.FramesSent,
			FramesRecv:     w.FramesRecv,
			WireBytes:      w.WireBytes,
			Dials:          w.Dials,
			Redials:        w.Redials,
			SendRetries:    w.SendRetries,
			InjectedDrops:  w.InjectedDrops,
			InjectedDelays: w.InjectedDelays,
		}
	}

	resp = Response{ID: req.ID, Status: StatusOK}
	if !verdict.Pass || verify != nil {
		resp.Status = StatusViolation
		resp.Detail = violationDetail(verdict, verify)
	}
	data, err := json.Marshal(a)
	if err != nil {
		return s.finish(req, Response{ID: req.ID, Status: StatusInternal,
			Detail: fmt.Sprintf("artifact marshal: %v", err)}, "")
	}
	resp.Artifact = data
	if req.WantTrace {
		var b bytes.Buffer
		if err := trace.WriteEventsJSONL(&b, meta, events); err != nil {
			return s.finish(req, Response{ID: req.ID, Status: StatusInternal,
				Detail: fmt.Sprintf("trace render: %v", err)}, "")
		}
		resp.Trace = b.Bytes()
	}
	// A response over the frame cap cannot be written, and the client
	// would wait for it until its own deadline; reject it, as the
	// built-graph check above rejects a graph over the admitted cap.
	if size := responseFrameBound(resp); size > MaxFrameBytes {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid,
			Detail: fmt.Sprintf("response would be %d bytes (artifact %d, trace %d), over the %d-byte frame cap",
				size, len(resp.Artifact), len(resp.Trace), MaxFrameBytes)}, "")
	}
	// Fold the completed run's counters into the service registry —
	// only completed runs: a canceled cell's partial counters would
	// depend on where the deadline happened to land.
	s.reg.Merge(reg)
	return s.finish(req, resp, p.Name())
}

// maxEdges is the per-request edge cap, edgesPerNode·MaxN.
func (s *Service) maxEdges() int { return edgesPerNode * s.cfg.MaxN }

// finish records the request accounting and returns resp. canonical
// is the resolved problem name for completed runs ("" otherwise).
func (s *Service) finish(req Request, resp Response, canonical string) Response {
	s.reg.Add(metrics.ServiceRequests, 1)
	s.reg.Add(metrics.ServiceStatusName(resp.Status.String()), 1)
	if canonical != "" {
		s.reg.Add(metrics.ServiceProblemName(canonical), 1)
	}
	return resp
}

// violationDetail summarizes the failing checks of a violation.
func violationDetail(v *conform.Verdict, verify error) string {
	var parts []string
	for _, c := range v.Failures() {
		parts = append(parts, c.Name)
	}
	if verify != nil {
		parts = append(parts, verify.Error())
	}
	return "failed: " + strings.Join(parts, ", ")
}
