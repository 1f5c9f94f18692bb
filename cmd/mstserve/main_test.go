package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// serveCell runs serve once and decodes the artifact.
func serveCell(t *testing.T, probName string, n int, drop, delay float64, retries int) (artifact, []byte) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "verdict.json")
	err := serve("random", n, 2*n, 0, 0.2, 1, probName,
		retries, transport.DefaultRecvTimeout, drop, delay, time.Millisecond, 3,
		out, "", 1<<20)
	if err != nil {
		t.Fatalf("serve(%s): %v", probName, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	return a, data
}

// verdictBytes re-marshals just the transport-independent sections
// for byte comparison across runs.
func verdictBytes(t *testing.T, a artifact) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		V interface{} `json:"verdict"`
		R runSummary  `json:"run"`
	}{a.Verdict, a.Run})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeVerdictIdenticalAcrossBackends pins the service's core
// claim: the certified verdict and run summary over TCP are those of
// the in-memory run of the same cell.
func TestServeVerdictIdenticalAcrossBackends(t *testing.T) {
	for _, probName := range []string{"mst/randomized", "mis"} {
		tcp, _ := serveCell(t, probName, 32, 0, 0, transport.DefaultRetries)
		p, err := problem.Lookup(probName)
		if err != nil {
			t.Fatal(err)
		}
		g, err := service.BuildGraph("random", 32, 64, 0, 0.2, 1)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := certify(p, g, "random", 1, nil, trace.NewRecorder(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(verdictBytes(t, tcp)), string(verdictBytes(t, mem)); got != want {
			t.Errorf("%s: verdict+run section differs from the in-memory run:\ntcp:       %s\nin-memory: %s", probName, got, want)
		}
		if !tcp.Verdict.Pass || !tcp.Run.VerifyPassed {
			t.Errorf("%s: tcp verdict did not pass: %+v", probName, tcp.Verdict)
		}
		if tcp.Wire.FramesSent == 0 || tcp.Wire.WireBytes == 0 {
			t.Errorf("%s: tcp wire section empty: %+v", probName, tcp.Wire)
		}
	}
}

// TestServeFaultyWireStillCertifies injects wire drops and delays
// with a retry budget: the artifact must still certify a correct
// tree, and the wire section must show the faults were exercised.
func TestServeFaultyWireStillCertifies(t *testing.T) {
	clean, _ := serveCell(t, "mst/randomized", 32, 0, 0, 8)
	faulty, _ := serveCell(t, "mst/randomized", 32, 0.05, 0.05, 8)
	if got, want := string(verdictBytes(t, faulty)), string(verdictBytes(t, clean)); got != want {
		t.Errorf("verdict+run section changed under wire faults:\nfaulty: %s\nclean:  %s", got, want)
	}
	if faulty.Wire.InjectedDrops == 0 && faulty.Wire.InjectedDelays == 0 {
		t.Errorf("fault injector idle: %+v", faulty.Wire)
	}
}

// TestServeRejectsUnknownInputs covers the argument surface.
func TestServeRejectsUnknownInputs(t *testing.T) {
	base := func(prob, graph string) error {
		return serve(graph, 8, 16, 0, 0.2, 1, prob,
			0, time.Second, 0, 0, time.Millisecond, 1, filepath.Join(t.TempDir(), "v.json"), "", 1<<16)
	}
	if err := base("nope", "random"); err == nil {
		t.Error("unknown problem accepted")
	}
	if err := base("mis", "torus"); err == nil {
		t.Error("unknown graph kind accepted")
	}
}

// TestExitCodes pins the documented exit-code split: 0 = success,
// 1 = conformance/correctness violation, 2 = internal error — however
// deeply the violation sentinel is wrapped.
func TestExitCodes(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Errorf("exitCode(nil) = %d, want 0", got)
	}
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", errViolation))
	if got := exitCode(wrapped); got != 1 {
		t.Errorf("exitCode(wrapped violation) = %d, want 1", got)
	}
	if got := exitCode(errors.New("dial tcp: connection refused")); got != 2 {
		t.Errorf("exitCode(internal error) = %d, want 2", got)
	}
	// The one-shot violation path must produce the sentinel: a passing
	// run must not.
	if err := serve("random", 16, 32, 0, 0.2, 1, "mis",
		0, time.Second, 0, 0, time.Millisecond, 1, filepath.Join(t.TempDir(), "v.json"), "", 1<<16); err != nil {
		t.Errorf("passing cell returned %v", err)
	}
	if err := serve("random", 16, 32, 0, 0.2, 1, "nope",
		0, time.Second, 0, 0, time.Millisecond, 1, filepath.Join(t.TempDir(), "v.json"), "", 1<<16); exitCode(err) != 2 {
		t.Errorf("unknown problem classified as %d, want 2", exitCode(err))
	}
}

// TestDaemonSIGTERMDrain drives the daemon end to end in-process: a
// request over the wire, then SIGTERM mid-service; the daemon must
// answer the request, drain cleanly (exit path 0), and write the
// merged metrics registry.
func TestDaemonSIGTERMDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metricsOut := filepath.Join(t.TempDir(), "metrics.txt")
	daemonErr := make(chan error, 1)
	go func() { daemonErr <- daemonOn(ln, 2, 8, time.Minute, 1024, metricsOut) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := service.WriteRequest(conn, service.Request{
		ID: 1, Problem: "mst/randomized", Graph: "random", N: 24, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := service.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != service.StatusOK {
		t.Fatalf("daemon answered %v (%s), want ok", resp.Status, resp.Detail)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-daemonErr:
		if err != nil {
			t.Fatalf("daemon drain returned %v, want nil (exit code 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("drained daemon wrote no metrics: %v", err)
	}
	if !strings.Contains(string(data), "service/requests/total") {
		t.Errorf("metrics registry missing request accounting:\n%s", data)
	}
}
