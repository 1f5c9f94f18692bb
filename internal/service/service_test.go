package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// testMix is a fixed request mix spanning problems, topologies, and
// backends — the workload both determinism tests replay.
func testMix() []Request {
	return []Request{
		{ID: 1, Problem: "mst/randomized", Graph: "random", N: 32, Seed: 7},
		{ID: 2, Problem: "mis", Graph: "ring", N: 48, Seed: 3},
		{ID: 3, Problem: "mst/baseline", Graph: "grid", N: 25, Seed: 11},
		{ID: 4, Problem: "mst/randomized", Graph: "path", N: 24, Seed: 5},
		{ID: 5, Problem: "mst/ghs", Graph: "complete", N: 12, Seed: 2},
		{ID: 6, Problem: "randomized", Graph: "random", N: 28, M: 80, Seed: 9}, // bare alias
		{ID: 7, Problem: "mis", Graph: "grid", N: 36, Seed: 1, WantTrace: true},
		{ID: 8, Problem: "mst/randomized", Graph: "sensor", N: 40, Radius: 0.5, Seed: 13},
		{ID: 9, Problem: "mst/logstar", Graph: "ring", N: 32, Seed: 4},
		{ID: 10, Problem: "mst/randomized", Graph: "random", N: 32, Seed: 7, Transport: "tcp"},
	}
}

// runMix submits the fixed mix to a fresh service from 8 concurrent
// client goroutines and returns every response plus the drained
// service metrics rendering.
func runMix(t *testing.T, workers int) (map[int64]Response, string) {
	t.Helper()
	svc := New(Config{Workers: workers})
	reqs := make(chan Request)
	var (
		mu  sync.Mutex
		got = map[int64]Response{}
		wg  sync.WaitGroup
	)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range reqs {
				resp := svc.Submit(req)
				mu.Lock()
				got[req.ID] = resp
				mu.Unlock()
			}
		}()
	}
	for _, req := range testMix() {
		reqs <- req
	}
	close(reqs)
	wg.Wait()
	svc.Drain()
	return got, svc.Metrics().String()
}

// TestServiceDeterministicAcrossWorkers is the acceptance pin: the
// fixed-seed mix produces identical per-request responses (status,
// artifact bytes, trace bytes) and a byte-identical merged service
// metrics registry with 1 worker and with 8.
func TestServiceDeterministicAcrossWorkers(t *testing.T) {
	seq, seqMetrics := runMix(t, 1)
	par, parMetrics := runMix(t, 8)

	if len(seq) != len(testMix()) {
		t.Fatalf("lost responses: got %d, want %d", len(seq), len(testMix()))
	}
	for id, want := range seq {
		gotR, ok := par[id]
		if !ok {
			t.Fatalf("request %d: no response at workers=8", id)
		}
		if !reflect.DeepEqual(gotR, want) {
			t.Errorf("request %d: response differs across worker counts:\n 1: %+v\n 8: %+v", id, want, gotR)
		}
		if want.Status != StatusOK {
			t.Errorf("request %d: status %v (%s), want ok", id, want.Status, want.Detail)
			continue
		}
		var a Artifact
		if err := json.Unmarshal(want.Artifact, &a); err != nil {
			t.Fatalf("request %d: artifact does not parse: %v", id, err)
		}
		if a.ID != id || a.Verdict == nil || !a.Verdict.Pass || !a.Run.VerifyPassed {
			t.Errorf("request %d: artifact not a passing verdict: %+v", id, a)
		}
	}
	if seqMetrics != parMetrics {
		t.Errorf("service metrics differ across worker counts:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", seqMetrics, parMetrics)
	}
	if seqMetrics == "" {
		t.Error("service metrics empty")
	}
}

// TestServiceRequestFeatures spot-checks per-request isolation knobs
// on single responses: traces arrive only when asked for, the tcp
// request carries wire accounting, and the in-memory ones do not.
func TestServiceRequestFeatures(t *testing.T) {
	seq, _ := runMix(t, 1)
	if len(seq[7].Trace) == 0 {
		t.Error("WantTrace request returned no trace")
	}
	if len(seq[1].Trace) != 0 {
		t.Error("trace shipped without WantTrace")
	}
	var withWire, without Artifact
	if err := json.Unmarshal(seq[10].Artifact, &withWire); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(seq[1].Artifact, &without); err != nil {
		t.Fatal(err)
	}
	if withWire.Wire == nil || withWire.Wire.FramesSent == 0 {
		t.Errorf("tcp request carries no wire accounting: %+v", withWire.Wire)
	}
	if without.Wire != nil {
		t.Errorf("in-memory request carries wire accounting: %+v", without.Wire)
	}
}

// TestServiceTraceCapBoundsOnlyTheShippedTrace: TraceCap cuts the
// shipped trace to the run's first TraceCap events in canonical order,
// with the end line counting the rest as dropped, and leaves the
// verdict alone: it covers the whole run, skipping nothing.
func TestServiceTraceCapBoundsOnlyTheShippedTrace(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain()
	req := Request{ID: 1, Problem: "mst/randomized", Graph: "random", N: 128, Seed: 9, WantTrace: true, TraceCap: MaxTraceCap}
	full := svc.Submit(req)
	req.TraceCap = 1000
	capped := svc.Submit(req)
	if full.Status != StatusOK || capped.Status != StatusOK {
		t.Fatalf("statuses %v (%s), %v (%s)", full.Status, full.Detail, capped.Status, capped.Detail)
	}
	if !bytes.Equal(full.Artifact, capped.Artifact) {
		t.Errorf("the trace cap changed the artifact:\n%s\n%s", full.Artifact, capped.Artifact)
	}
	var a Artifact
	if err := json.Unmarshal(capped.Artifact, &a); err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Verdict.Checks {
		if c.Status == conform.StatusSkip && strings.Contains(c.Detail, "dropped") {
			t.Errorf("%s skipped: %s", c.Name, c.Detail)
		}
	}
	fullMeta, fullEvents, err := trace.ReadJSONL(bytes.NewReader(full.Trace))
	if err != nil {
		t.Fatal(err)
	}
	meta, events, err := trace.ReadJSONL(bytes.NewReader(capped.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if fullMeta.Dropped != 0 || fullMeta.Events <= 1000 {
		t.Fatalf("uncut trace meta %+v, want over 1000 events and no drops", fullMeta)
	}
	want := trace.Meta{N: 128, Rounds: fullMeta.Rounds, Events: 1000, Dropped: fullMeta.Events - 1000}
	if meta != want || !reflect.DeepEqual(events, fullEvents[:1000]) {
		t.Errorf("capped trace meta %+v (want %+v), its events the uncut trace's first 1000: %v",
			meta, want, reflect.DeepEqual(events, fullEvents[:1000]))
	}
}

// TestServiceInvalidRequests pins the StatusInvalid vocabulary: every
// way a request can fail validation is rejected before admission with
// a detail naming the offending field.
func TestServiceInvalidRequests(t *testing.T) {
	svc := New(Config{Workers: 1, MaxN: 100})
	defer svc.Drain()
	cases := []struct {
		name   string
		req    Request
		detail string
	}{
		{"unknown problem", Request{Problem: "tsp", Graph: "ring", N: 8}, "unknown problem"},
		{"unknown graph", Request{Problem: "mis", Graph: "torus", N: 8}, "unknown graph kind"},
		{"n too small", Request{Problem: "mis", Graph: "ring", N: 0}, "outside the admitted range"},
		{"n too large", Request{Problem: "mis", Graph: "ring", N: 101}, "outside the admitted range"},
		{"negative m", Request{Problem: "mis", Graph: "random", N: 8, M: -1}, "negative m"},
		{"ring n=1", Request{Problem: "mis", Graph: "ring", N: 1}, "ring requires n >= 3"},
		{"ring n=2", Request{Problem: "mis", Graph: "ring", N: 2}, "ring requires n >= 3"},
		{"rows over n", Request{Problem: "mis", Graph: "grid", N: 9, Rows: 1 << 40}, "exceeds n"},
		{"bad transport", Request{Problem: "mis", Graph: "ring", N: 8, Transport: "udp"}, "unknown transport"},
		{"retired inproc transport", Request{Problem: "mis", Graph: "ring", N: 8, Transport: "inproc"}, "unknown transport"},
		{"nan radius", Request{Problem: "mis", Graph: "sensor", N: 8, Radius: math.NaN()}, "radius"},
		{"trace cap", Request{Problem: "mis", Graph: "ring", N: 8, TraceCap: MaxTraceCap + 1}, "trace cap"},
		{"negative deadline", Request{Problem: "mis", Graph: "ring", N: 8, Deadline: -time.Second}, "negative deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := svc.Submit(tc.req)
			if resp.Status != StatusInvalid {
				t.Fatalf("status %v (%s), want invalid", resp.Status, resp.Detail)
			}
			if !bytes.Contains([]byte(resp.Detail), []byte(tc.detail)) {
				t.Errorf("detail %q does not mention %q", resp.Detail, tc.detail)
			}
			if len(resp.Artifact) != 0 {
				t.Error("invalid request carries an artifact")
			}
		})
	}
}

// TestServiceDeadlineCap: the service's default deadline caps the
// deadline a request may set. A request a nanosecond over it is
// answered invalid with a detail naming the cap; one at the cap runs.
func TestServiceDeadlineCap(t *testing.T) {
	const limit = 3 * time.Second
	svc := New(Config{Workers: 1, DefaultDeadline: limit})
	defer svc.Drain()
	resp := svc.Submit(Request{ID: 1, Problem: "mis", Graph: "ring", N: 8, Deadline: limit + time.Nanosecond})
	if resp.Status != StatusInvalid {
		t.Fatalf("a deadline over the cap: status %v (%s), want invalid", resp.Status, resp.Detail)
	}
	if !strings.Contains(resp.Detail, limit.String()) {
		t.Errorf("detail %q does not name the cap %v", resp.Detail, limit)
	}
	if resp := svc.Submit(Request{ID: 2, Problem: "mis", Graph: "ring", N: 8, Deadline: limit}); resp.Status != StatusOK {
		t.Fatalf("a deadline at the cap: status %v (%s), want ok", resp.Status, resp.Detail)
	}
}

// TestServiceBuiltGraphCap: a topology whose construction rounds the
// node count up past the requested N (grid builds rows x cols >= n)
// is re-checked against MaxN after the build, so the admission cap
// cannot be bypassed through derived sizes.
func TestServiceBuiltGraphCap(t *testing.T) {
	svc := New(Config{Workers: 1, MaxN: 8})
	defer svc.Drain()
	// rows=7 passes validation (7 <= n=8) but grid builds 7x2 = 14.
	resp := svc.Submit(Request{ID: 1, Problem: "mis", Graph: "grid", N: 8, Rows: 7})
	if resp.Status != StatusInvalid {
		t.Fatalf("status %v (%s), want invalid", resp.Status, resp.Detail)
	}
	if !bytes.Contains([]byte(resp.Detail), []byte("over the admitted cap")) {
		t.Errorf("detail %q does not name the cap", resp.Detail)
	}
}

// panicProblem stands in for any construction-or-run bug inside a
// request cell: its Run panics unconditionally.
type panicProblem struct{}

func (panicProblem) Name() string { return "test/panic" }
func (panicProblem) Run(*graph.Graph, core.Options) (*problem.Result, error) {
	panic("cell bug")
}
func (panicProblem) Budget(int) (int64, bool)                   { return 0, false }
func (panicProblem) Verify(*graph.Graph, *problem.Result) error { return nil }
func (panicProblem) ConformCheck(*graph.Graph, *problem.Result) conform.Check {
	return conform.Check{}
}

// TestExecutePanicIsInternal: a panic anywhere in a request cell is
// recovered into StatusInternal instead of unwinding a pool worker
// goroutine and killing the daemon.
func TestExecutePanicIsInternal(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain()
	resp, chunks := svc.execute(Request{ID: 77, Graph: "path", N: 4}, panicProblem{},
		time.Minute, make(chan struct{}))
	if resp.Status != StatusInternal || chunks != nil {
		t.Fatalf("status %v (%s) with %d trace chunks, want internal with none", resp.Status, resp.Detail, len(chunks))
	}
	if !bytes.Contains([]byte(resp.Detail), []byte("panic in request cell")) {
		t.Errorf("detail %q does not name the panic", resp.Detail)
	}
	if got := svc.Metrics().Get("service/status/internal"); got != 1 {
		t.Errorf("service/status/internal = %d, want 1", got)
	}
}

// TestDecodeResponseUnknownStatus: a wire status outside the
// vocabulary is rejected even when its uint8 truncation would land on
// a valid code (256 % 256 = 0 = StatusOK).
func TestDecodeResponseUnknownStatus(t *testing.T) {
	for _, raw := range []uint64{uint64(statusCount), 200, 256, 1 << 32} {
		body := binary.AppendUvarint(nil, KindResponse)
		body = binary.AppendVarint(body, 5)    // ID
		body = binary.AppendUvarint(body, raw) // status
		body = binary.AppendUvarint(body, 0)   // detail
		body = binary.AppendUvarint(body, 0)   // artifact
		body = binary.AppendUvarint(body, 0)   // trace
		if _, err := DecodeResponse(body); err == nil {
			t.Errorf("status %d on the wire decoded cleanly, want unknown-status rejection", raw)
		}
	}
	// The boundary below statusCount still decodes.
	body := binary.AppendUvarint(nil, KindResponse)
	body = binary.AppendVarint(body, 5)
	body = binary.AppendUvarint(body, uint64(statusCount-1))
	body = binary.AppendUvarint(body, 0)
	body = binary.AppendUvarint(body, 0)
	body = binary.AppendUvarint(body, 0)
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatalf("status %d rejected: %v", statusCount-1, err)
	}
	if resp.Status != statusCount-1 {
		t.Errorf("decoded status %v, want %v", resp.Status, statusCount-1)
	}
}

// TestServerEndToEnd drives the wire protocol over real loopback
// sockets: pipelined mixed MST+MIS requests on one connection,
// responses correlated by ID, artifacts certified, and a clean
// Shutdown that makes Serve return ErrServerClosed.
func TestServerEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 4})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqs := []Request{
		{ID: 100, Problem: "mst/randomized", Graph: "random", N: 24, Seed: 6},
		{ID: 101, Problem: "mis", Graph: "ring", N: 32, Seed: 2},
		{ID: 102, Problem: "mst/baseline", Graph: "path", N: 16, Seed: 8, WantTrace: true},
	}
	for _, req := range reqs {
		if err := WriteRequest(conn, req); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(conn)
	got := map[int64]Response{}
	for range reqs {
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		got[resp.ID] = resp
	}
	for _, req := range reqs {
		resp, ok := got[req.ID]
		if !ok {
			t.Fatalf("no response for request %d", req.ID)
		}
		if resp.Status != StatusOK {
			t.Fatalf("request %d: status %v (%s)", req.ID, resp.Status, resp.Detail)
		}
		var a Artifact
		if err := json.Unmarshal(resp.Artifact, &a); err != nil {
			t.Fatal(err)
		}
		if !a.Verdict.Pass || !a.Run.VerifyPassed {
			t.Errorf("request %d: verdict did not pass", req.ID)
		}
	}
	if len(got[102].Trace) == 0 {
		t.Error("WantTrace request over the wire returned no trace")
	}

	srv.Shutdown()
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}
