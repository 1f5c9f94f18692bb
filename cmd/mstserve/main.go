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
//	mstserve -serve 127.0.0.1:7600 -workers 8 -queue 64   # daemon
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sleepmst/internal/core"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// errViolation marks a completed run whose conformance verdict or
// correctness oracle failed — exit code 1, distinct from
// infrastructure failures (exit code 2).
var errViolation = errors.New("conformance violation")

func main() {
	var (
		graphKind = flag.String("graph", "random", "topology: "+service.GraphKindList)
		n         = flag.Int("n", 64, "number of nodes")
		m         = flag.Int("m", 0, "edges for -graph random (default 2n: sparse, socket-friendly)")
		rows      = flag.Int("rows", 0, "rows for -graph grid (default sqrt(n))")
		radius    = flag.Float64("radius", 0.2, "radius for -graph sensor")
		seed      = flag.Int64("seed", 1, "seed for topology, weights and algorithm randomness")
		probName  = flag.String("problem", "mst/randomized", "problem to serve (qualified name such as mst/randomized or mis, or a bare MST alias)")
		outPath   = flag.String("out", "", "write the JSON artifact to this file ('-' = stdout; default stdout)")
		traceOut  = flag.String("trace-out", "", "also write the structured JSONL event trace to this file")
		traceCap  = flag.Int("trace-cap", service.MaxTraceCap, "events -trace-out keeps: the first N events in canonical order; the end line counts the rest as dropped")

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
		err = serve(*graphKind, *n, *m, *rows, *radius, *seed, *probName, *outPath, *traceOut, *traceCap)
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
// artifact. Its verdict and run sections depend only on the problem,
// the graph and the seed: the wire shows up in the transport and wire
// sections alone.
func serve(graphKind string, n, m, rows int, radius float64, seed int64,
	probName, outPath, traceOut string, traceCap int) error {
	p, err := problem.Lookup(probName)
	if err != nil {
		return err
	}
	g, err := service.BuildGraph(graphKind, n, m, rows, radius, seed)
	if err != nil {
		return err
	}
	tcp := transport.NewTCP(transport.TCPConfig{})
	defer tcp.Close()
	// The trace file is the render the daemon ships for a request
	// with the same trace cap.
	var jsonl *trace.JSONL
	if traceOut != "" {
		jsonl = trace.NewJSONL(int64(traceCap), math.MaxInt)
	}
	c, err := problem.Certify(p, g, core.Options{Seed: seed, Transport: tcp}, jsonl)
	if err != nil {
		return fmt.Errorf("run failed: %w", err)
	}
	wire := service.NewWireSummary(tcp.TransportStats())
	a := service.Artifact{
		Schema:    service.ArtifactSchema,
		Problem:   p.Name(),
		Graph:     graphKind,
		N:         g.N(),
		M:         g.M(),
		Seed:      seed,
		Transport: "tcp",
		Verdict:   c.Verdict,
		Run:       service.NewRunSummary(c.Result, p.Verify(g, c.Result) == nil),
		Wire:      &wire,
	}

	if jsonl != nil {
		if err := os.WriteFile(traceOut, jsonl.Bytes(), 0o644); err != nil {
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
