package main

import (
	"fmt"
	"runtime"
	"time"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/sim"
	"sleepmst/internal/transport"
)

// simWorkload runs one registered problem on a panel of seeded graphs:
// op i is a certified run (Run + Verify) on panel graph i mod panel
// with algorithm seed seed+(i mod panel), so a run that outlasts the
// panel repeats inputs instead of drawing new ones.
type simWorkload struct {
	problem   string
	n         int
	build     func(n int, seed int64) (*graph.Graph, error)
	tcp       bool // run every op over a fresh loopback TCP transport
	panel     int  // distinct inputs
	minOps    int  // timed ops always run; the output digest covers them
	tracedOps int  // ops of the profiled pass in a traced run
}

// denseRandom is the sweep topology: a connected random graph with 3n
// edges.
func denseRandom(n int, seed int64) (*graph.Graph, error) {
	return graph.RandomConnected(n, 3*n, graph.GenConfig{Seed: seed}), nil
}

// serviceRandom is the service's random topology (m = 2n).
func serviceRandom(n int, seed int64) (*graph.Graph, error) {
	return service.BuildGraph("random", n, 0, 0, 0, seed)
}

// opDeadline cancels a certified run that hangs, so a stuck op is
// counted as a failure instead of wedging the benchmark.
const opDeadline = 60 * time.Second

// opResult is one certified run.
type opResult struct {
	dur, run, verify time.Duration
	allocs, bytes    uint64
	res              *problem.Result
	wire             transport.Stats
	err              error
}

// op runs one certified run of input i. It calls runtime.GC first so
// ops start from the same heap state, and measures heap allocations
// across Run and Verify. Spans are recorded under parent; parent 0
// records none (the timed phase runs untraced).
func (w simWorkload) op(c *runCtx, p problem.Problem, g *graph.Graph, i int, parent int) opResult {
	spans := c.spans
	if parent == 0 {
		spans = nil
	}
	opts := core.Options{Seed: c.seed + int64(i%w.panel)}
	cancel := make(chan struct{})
	timer := time.AfterFunc(opDeadline, func() { close(cancel) })
	defer timer.Stop()
	opts.Cancel = cancel
	var tcp *transport.TCP
	if w.tcp {
		tcp = transport.NewTCP(transport.TCPConfig{})
		opts.Transport = tcp
	}

	gcSpan := spans.start("bench.gc", parent)
	runtime.GC()
	spans.end(gcSpan)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	r, err := p.Run(g, opts)
	t1 := time.Now()
	if err == nil {
		err = p.Verify(g, r)
	} else {
		err = fmt.Errorf("run: %w", err)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&after)
	spans.add("problem.run", parent, t0, t1)
	spans.add("problem.verify", parent, t1, t2)

	out := opResult{dur: t2.Sub(t0), run: t1.Sub(t0), verify: t2.Sub(t1),
		allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc, res: r, err: err}
	if tcp != nil {
		out.wire = tcp.TransportStats()
		s := spans.start("transport.close", parent)
		tcp.Close()
		spans.end(s)
	}
	return out
}

func (w simWorkload) run(c *runCtx) error {
	p, err := problem.Lookup(w.problem)
	if err != nil {
		return err
	}

	// Set-up builds the input panel.
	span := c.spans.start("bench.setup", rootSpan)
	var panel []*graph.Graph
	var builds []float64
	setup, err := setupRepeatedly(func() error {
		panel = make([]*graph.Graph, w.panel)
		for i := range panel {
			b0 := time.Now()
			var err error
			if panel[i], err = w.build(w.n, c.seed+int64(i)); err != nil {
				return fmt.Errorf("build input %d: %w", i, err)
			}
			c.spans.add("graph.build", span, b0, time.Now())
			builds = append(builds, ms(time.Since(b0)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.spans.end(span)
	c.set("setup_s", setup)
	c.set("graph.build_ms", median(builds))

	span = c.spans.start("bench.warmup", rootSpan)
	if r := w.op(c, p, panel[0], 0, span); r.err != nil {
		c.fail("warm-up op: %v", r.err)
	}
	c.spans.end(span)

	// Timed phase: ops until the measuring window closes, and at least
	// minOps of them.
	span = c.spans.start("bench.timed", rootSpan)
	var lat []float64
	var busy time.Duration
	var allocs, bytes uint64
	okOps := 0
	rss := sampleRSS()
	start := time.Now()
	for i := 0; i < w.minOps || time.Since(start) < c.seconds; i++ {
		r := w.op(c, p, panel[i%w.panel], i, 0)
		c.attempted++
		if r.err != nil {
			c.fail("op %d: %v", i, r.err)
			lat = append(lat, inf)
			continue
		}
		okOps++
		busy += r.dur
		lat = append(lat, ms(r.dur))
		allocs += r.allocs
		bytes += r.bytes
		if i < w.minOps {
			w.digest(c, i, r)
		}
	}
	c.set("rss_p95_mb", rss.stop())
	c.spans.end(span)
	c.set("latency_p50_ms", median(lat))
	if okOps > 0 {
		c.set("ops_per_s", float64(okOps)/busy.Seconds())
		c.set("allocs_per_op", float64(allocs)/float64(okOps))
		c.set("alloc_mb_per_op", float64(bytes)/(1<<20)/float64(okOps))
	}

	if c.spans != nil {
		return w.traced(c, p, panel, lat)
	}
	return nil
}

// digest folds op i's deterministic outputs into the output digest.
func (w simWorkload) digest(c *runCtx, i int, r opResult) {
	s := r.res.Sim
	fmt.Fprintf(c.digest, "%d|%d|%d|%d|%d|%d|%d", i, s.Rounds, s.BusyRounds, s.MaxAwake(), s.MessagesSent, s.BitsSent, r.res.Phases)
	if r.res.Outcome != nil {
		fmt.Fprintf(c.digest, "|w%d", graph.TotalWeight(r.res.Outcome.MSTEdges))
	}
	for v, in := range r.res.InMIS {
		if in {
			fmt.Fprintf(c.digest, "|%d", v)
		}
	}
	fmt.Fprintln(c.digest)
}

// traced runs the profiled pass and the layer probes. timedLat holds
// the timed phase's op latencies, whose first tracedOps share inputs
// with the profiled pass.
func (w simWorkload) traced(c *runCtx, p problem.Problem, panel []*graph.Graph, timedLat []float64) error {
	var runs, verifies, perMsg, perFrame, tracedLat []float64
	var totals simTotals
	var frames, wireBytes, dials float64
	var tcpRuns []time.Duration
	span := c.spans.start("bench.profile", rootSpan)
	shares, err := cpuProfile(c.profilePath, func() error {
		for i := 0; i < w.tracedOps; i++ {
			opSpan := c.spans.start("bench.op", span)
			r := w.op(c, p, panel[i%w.panel], i, opSpan)
			c.spans.end(opSpan)
			if r.err != nil {
				return fmt.Errorf("traced op %d: %w", i, r.err)
			}
			s := r.res.Sim
			tracedLat = append(tracedLat, ms(r.dur))
			runs = append(runs, ms(r.run))
			verifies = append(verifies, ms(r.verify))
			perMsg = append(perMsg, float64(r.run.Nanoseconds())/float64(max(s.MessagesSent, 1)))
			totals.add(s)
			if w.tcp {
				tcpRuns = append(tcpRuns, r.run)
				perFrame = append(perFrame, float64(r.run.Nanoseconds())/float64(max(r.wire.FramesSent, 1)))
				frames += float64(r.wire.FramesSent)
				wireBytes += float64(r.wire.WireBytes)
				dials += float64(r.wire.Dials)
			}
		}
		return nil
	})
	c.spans.end(span)
	if err != nil {
		return err
	}
	for k, v := range shares {
		c.set(k, v)
	}
	c.set("problem.run_ms", median(runs))
	c.set("problem.verify_ms", median(verifies))
	c.set("sim.ns_per_message", median(perMsg))
	totals.set(c)
	c.set("bench.trace_overhead_ratio", median(tracedLat)/median(timedLat[:min(len(timedLat), w.tracedOps)]))

	// Over TCP, the in-memory run of every profiled input, outside the
	// profile, gives the wire's share of each run.
	var overheads []float64
	if w.tcp {
		span = c.spans.start("bench.probes", rootSpan)
		for i, tcpRun := range tcpRuns {
			t0 := time.Now()
			if _, err := p.Run(panel[i%w.panel], core.Options{Seed: c.seed + int64(i%w.panel)}); err != nil {
				return fmt.Errorf("in-memory probe: %w", err)
			}
			t1 := time.Now()
			c.spans.add("problem.run_inmemory", span, t0, t1)
			overheads = append(overheads, ms(tcpRun-t1.Sub(t0)))
		}
		c.spans.end(span)
	}
	c.set("transport.overhead_ms", median(overheads))
	c.set("transport.ns_per_frame", median(perFrame))
	c.set("transport.frames_sent", frames)
	c.set("transport.wire_kb", wireBytes/1024)
	c.set("transport.dials", dials)
	// Trace recording, rendering and certification are the service's
	// per-request stages; these workloads run none of them.
	for _, k := range []string{"trace.record_overhead_ms", "trace.write_jsonl_ms", "trace.jsonl_kb", "conform.verdict_ms",
		"service.submit_ms_p50", "service.latency_p99_ms", "service.encode_response_ms",
		"service.decode_response_ms", "service.response_kb", "service.response_kb_max"} {
		c.set(k, 0)
	}
	return nil
}

// simTotals sums the deterministic counters of a traced run's
// simulations: guards that must not move unless a change says why.
type simTotals struct{ rounds, busyRounds, awakeMax, sent, bits int64 }

func (t *simTotals) add(s *sim.Result) {
	t.rounds += s.Rounds
	t.busyRounds += s.BusyRounds
	t.awakeMax += s.MaxAwake()
	t.sent += s.MessagesSent
	t.bits += s.BitsSent
}

func (t simTotals) set(c *runCtx) {
	c.set("sim.rounds", float64(t.rounds))
	c.set("sim.busy_rounds", float64(t.busyRounds))
	c.set("sim.awake_max", float64(t.awakeMax))
	c.set("sim.messages_sent", float64(t.sent))
	c.set("sim.bits_sent", float64(t.bits))
}
