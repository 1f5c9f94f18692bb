// Command mstserve is the real-transport MST service: it takes a
// graph description, runs a registered sleeping-model problem with
// every delivery carried over real loopback TCP sockets, certifies the
// produced trace with the conformance checker, and emits one JSON
// artifact holding the verdict, the run summary, and the physical wire
// accounting.
//
// The service exists to close the loop the simulator alone cannot:
// the same algorithms, trace recorder, and invariant catalog, but
// with every message encoded into a binary frame and shipped through
// sockets — so "the tree is correct and the awake budget holds" is
// certified over a real deployment path, not only in scheduler
// memory. The verdict and run sections of the artifact are
// byte-identical to an in-memory run of the same cell; only the wire
// section knows that sockets carried the frames.
//
// Chaos, reinterpreted: -drop and -delay inject wire-level faults
// (transient send failures and latency) below the model. With a
// positive -retries budget every injected drop is masked by
// retransmission, so the artifact must still certify a correct tree;
// with -retries 0 drops become permanent and the run fails loudly at
// the round barrier rather than silently miscomputing.
//
// With -serve the command becomes a persistent daemon instead of a
// one-shot cell: it listens on the given address and serves concurrent
// certified-computation requests over the internal/service wire
// protocol, with a bounded admission queue, per-request deadlines, and
// a graceful SIGTERM drain that finishes every admitted request before
// exiting. cmd/mstload is the matching load generator.
//
// Exit codes are split so scripts can tell "the math failed" from "the
// infrastructure failed": 0 = success, 1 = a conformance or
// correctness violation, 2 = an internal error (bad arguments,
// transport bring-up, I/O).
//
// Usage:
//
//	mstserve -n 64 -m 128 -problem mst/randomized -out verdict.json
//	mstserve -n 32 -drop 0.05 -delay 0.05 -retries 8   # faulty wire, clean tree
//	mstserve -serve 127.0.0.1:7600 -workers 8 -queue 64        # daemon
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sleepmst"
	"sleepmst/internal/conform"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// errViolation marks a completed run whose conformance verdict or
// correctness oracle failed — exit code 1, distinct from
// infrastructure failures (exit code 2).
var errViolation = errors.New("conformance violation")

// artifactSchema versions the mstserve JSON artifact.
const artifactSchema = 1

// wireName is the artifact's transport field: TCP is the one wire
// backend.
const wireName = "tcp"

// artifact is the JSON output: the conformance verdict (transport
// independent) plus the run and wire summaries.
type artifact struct {
	Schema    int    `json:"schema"`
	Problem   string `json:"problem"`
	Graph     string `json:"graph"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Seed      int64  `json:"seed"`
	Transport string `json:"transport"`

	// Verdict is the conformance verdict over the run's trace plus the
	// problem's correctness oracle — byte-identical across backends.
	Verdict *conform.Verdict `json:"verdict"`

	// Run summarizes the sleeping-model accounting.
	Run runSummary `json:"run"`

	// Wire is the physical transport accounting; timing-dependent
	// counters (retries, redials) live here and only here.
	Wire wireSummary `json:"wire"`
}

type runSummary struct {
	AwakeMax     int64   `json:"awake_max"`
	AwakeAvg     float64 `json:"awake_avg"`
	Rounds       int64   `json:"rounds"`
	BusyRounds   int64   `json:"busy_rounds"`
	Sent         int64   `json:"messages_sent"`
	Delivered    int64   `json:"messages_delivered"`
	Lost         int64   `json:"messages_lost"`
	BitsSent     int64   `json:"bits_sent"`
	MSTWeight    int64   `json:"mst_weight,omitempty"`
	Phases       int     `json:"phases,omitempty"`
	VerifyPassed bool    `json:"verify_passed"`
}

type wireSummary struct {
	FramesSent     int64 `json:"frames_sent"`
	FramesRecv     int64 `json:"frames_recv"`
	WireBytes      int64 `json:"wire_bytes"`
	Dials          int64 `json:"dials"`
	Redials        int64 `json:"redials,omitempty"`
	SendRetries    int64 `json:"send_retries,omitempty"`
	InjectedDrops  int64 `json:"injected_drops,omitempty"`
	InjectedDelays int64 `json:"injected_delays,omitempty"`
}

func main() {
	var (
		graphKind = flag.String("graph", "random", "topology: "+service.GraphKindList)
		n         = flag.Int("n", 64, "number of nodes")
		m         = flag.Int("m", 0, "edges for -graph random (default 2n: sparse, socket-friendly)")
		rows      = flag.Int("rows", 0, "rows for -graph grid (default sqrt(n))")
		radius    = flag.Float64("radius", 0.2, "radius for -graph sensor")
		seed      = flag.Int64("seed", 1, "seed for topology, weights and algorithm randomness")
		probName  = flag.String("problem", "mst/randomized", "problem to serve (qualified name such as mst/randomized or mis, or a bare MST alias)")
		retries   = flag.Int("retries", transport.DefaultRetries, "per-frame send retry budget (masks injected drops; 0 = single-attempt sends, drops are permanent)")
		timeout   = flag.Duration("timeout", transport.DefaultRecvTimeout, "round-barrier receive deadline")
		dropProb  = flag.Float64("drop", 0, "injected per-attempt wire drop probability in [0,1]")
		delayProb = flag.Float64("delay", 0, "injected per-frame wire delay probability in [0,1]")
		maxDelay  = flag.Duration("max-delay", 2*time.Millisecond, "injected delay upper bound")
		faultSeed = flag.Uint64("fault-seed", 1, "seed of the deterministic fault hash")
		outPath   = flag.String("out", "", "write the JSON artifact to this file ('-' = stdout; default stdout)")
		traceOut  = flag.String("trace-out", "", "also write the structured JSONL event trace to this file")
		traceCap  = flag.Int("trace-cap", 1<<21, "trace-recorder event capacity")

		serveAddr  = flag.String("serve", "", "persistent daemon mode: listen address for the service wire protocol (e.g. 127.0.0.1:7600)")
		workers    = flag.Int("workers", 0, "daemon worker-pool size (0 = GOMAXPROCS; 1 serializes requests)")
		queue      = flag.Int("queue", service.DefaultQueueDepth, "daemon admission-queue depth; a full queue rejects with the overloaded status")
		deadline   = flag.Duration("deadline", service.DefaultDeadline, "daemon default per-request deadline")
		maxN       = flag.Int("max-n", service.DefaultMaxN, "daemon per-request node-count cap")
		metricsOut = flag.String("metrics-out", "", "daemon: write the merged service metrics registry here after the drain")
	)
	flag.Parse()
	var err error
	if *serveAddr != "" {
		err = daemon(*serveAddr, *workers, *queue, *deadline, *maxN, *metricsOut)
	} else {
		err = serve(*graphKind, *n, *m, *rows, *radius, *seed, *probName,
			*retries, *timeout, *dropProb, *delayProb, *maxDelay, *faultSeed,
			*outPath, *traceOut, *traceCap)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps a run outcome onto the documented exit-code split:
// 0 = success, 1 = conformance/correctness violation, 2 = internal
// error.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errViolation):
		return 1
	default:
		return 2
	}
}

// daemon binds addr and runs the persistent service until SIGTERM.
func daemon(addr string, workers, queue int, deadline time.Duration, maxN int, metricsOut string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mstserve: serving on %s (workers=%d queue=%d)\n", ln.Addr(), workers, queue)
	return daemonOn(ln, workers, queue, deadline, maxN, metricsOut)
}

// daemonOn serves the wire protocol on ln until SIGTERM or interrupt,
// then drains gracefully: admitted requests finish, their responses
// flush, and the merged service metrics land in metricsOut. Split
// from daemon so tests can drive it on an ephemeral listener.
func daemonOn(ln net.Listener, workers, queue int, deadline time.Duration, maxN int, metricsOut string) error {
	svc := service.New(service.Config{
		Workers:         workers,
		QueueDepth:      queue,
		DefaultDeadline: deadline,
		MaxN:            maxN,
	})
	srv := service.NewServer(svc)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "mstserve: %v, draining\n", sig)
			srv.Shutdown()
		case <-done:
		}
	}()

	if err := srv.Serve(ln); !errors.Is(err, service.ErrServerClosed) {
		return err
	}
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, []byte(svc.Metrics().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "mstserve: drained cleanly")
	return nil
}

// serve runs one certified cell end to end over TCP and writes the
// artifact.
func serve(graphKind string, n, m, rows int, radius float64, seed int64,
	probName string, retries int, timeout time.Duration,
	dropProb, delayProb float64, maxDelay time.Duration, faultSeed uint64,
	outPath, traceOut string, traceCap int) error {
	p, err := problem.Lookup(probName)
	if err != nil {
		return err
	}
	g, err := service.BuildGraph(graphKind, n, m, rows, radius, seed)
	if err != nil {
		return err
	}

	if retries <= 0 {
		// TCPConfig treats 0 as "use the default"; -retries 0 must
		// genuinely disable the wire retry budget.
		retries = transport.NoRetries
	}
	var tx sleepmst.Transport = transport.NewTCP(transport.TCPConfig{Retries: retries, RecvTimeout: timeout})
	if dropProb > 0 || delayProb > 0 {
		tx = transport.WithFaults(tx, transport.FaultConfig{
			Seed:      faultSeed,
			DropProb:  dropProb,
			DelayProb: delayProb,
			MaxDelay:  maxDelay,
			Retries:   retries,
		})
	}
	defer tx.Close()

	rec := sleepmst.NewTraceRecorder(traceCap)
	a, err := certify(p, g, graphKind, seed, tx, rec)
	if err != nil {
		return fmt.Errorf("run failed (wire faults beyond the retry budget surface here): %w", err)
	}
	a.Transport = wireName
	if s, ok := sleepmst.TransportStatsOf(tx); ok {
		a.Wire = wireSummary{
			FramesSent:     s.FramesSent,
			FramesRecv:     s.FramesRecv,
			WireBytes:      s.WireBytes,
			Dials:          s.Dials,
			Redials:        s.Redials,
			SendRetries:    s.SendRetries,
			InjectedDrops:  s.InjectedDrops,
			InjectedDelays: s.InjectedDelays,
		}
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	if !a.Verdict.Pass || !a.Run.VerifyPassed {
		return fmt.Errorf("%w: %s on %s n=%d", errViolation, p.Name(), graphKind, g.N())
	}
	return nil
}

// certify runs p on g, every delivery carried over tx (nil = in
// memory), into rec, and builds the artifact's verdict and run
// sections from the certified trace. Those sections depend only on
// (p, g, seed): the backend shows up in the wire section alone, which
// the caller fills in.
func certify(p problem.Problem, g *graph.Graph, graphKind string, seed int64, tx sleepmst.Transport, rec *trace.Recorder) (artifact, error) {
	r, err := p.Run(g, sleepmst.Options{Seed: seed, Trace: rec, Transport: tx})
	if err != nil {
		return artifact{}, err
	}
	verdict := conform.Suite{
		Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: seed, Budget: p.Budget},
		Meta:   rec.Meta(),
		Events: rec.Events(),
		Extra:  []conform.Check{p.ConformCheck(g, r)},
	}.Verdict()
	a := artifact{
		Schema:  artifactSchema,
		Problem: p.Name(),
		Graph:   graphKind,
		N:       g.N(),
		M:       g.M(),
		Seed:    seed,
		Verdict: verdict,
		Run: runSummary{
			AwakeMax:     r.Sim.MaxAwake(),
			AwakeAvg:     r.Sim.MeanAwake(),
			Rounds:       r.Sim.Rounds,
			BusyRounds:   r.Sim.BusyRounds,
			Sent:         r.Sim.MessagesSent,
			Delivered:    r.Sim.MessagesDelivered,
			Lost:         r.Sim.MessagesLost,
			BitsSent:     r.Sim.BitsSent,
			Phases:       r.Phases,
			VerifyPassed: p.Verify(g, r) == nil,
		},
	}
	if r.Outcome != nil {
		a.Run.MSTWeight = sleepmst.TotalWeight(r.Outcome.MSTEdges)
	}
	return a, nil
}
