package service

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The fault-path battery: every documented failure mode — deadline
// exceeded, queue-full rejection, malformed request frame, and a
// mid-request drain — returns its documented status code, and none of
// them leaks a goroutine: after Drain/Shutdown the process is back to
// its pre-test goroutine count.

// assertNoLeaks polls until the goroutine count settles back to the
// before snapshot (scheduler teardown is asynchronous), failing with
// a full stack dump if it never does.
func assertNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultDeadline: an expired per-request deadline cancels the
// running cell at a round barrier, over either wire — StatusDeadline,
// no partial artifact, no leaked node programs.
func TestFaultDeadline(t *testing.T) {
	for _, wire := range []string{"none", "tcp"} {
		t.Run(wire, func(t *testing.T) {
			before := runtime.NumGoroutine()
			svc := New(Config{Workers: 1})
			resp := svc.Submit(Request{
				ID: 1, Problem: "mst/randomized", Graph: "random", N: 512,
				Seed: 1, Transport: wire, Deadline: time.Nanosecond,
			})
			svc.Drain()
			if resp.Status != StatusDeadline {
				t.Fatalf("status %v (%s), want deadline", resp.Status, resp.Detail)
			}
			if !strings.Contains(resp.Detail, "deadline") {
				t.Errorf("detail %q does not mention the deadline", resp.Detail)
			}
			if len(resp.Artifact) != 0 {
				t.Error("deadline response carries a partial artifact")
			}
			if got := svc.Metrics().Get("service/status/deadline"); got != 1 {
				t.Errorf("service/status/deadline = %d, want 1", got)
			}
			assertNoLeaks(t, before)
		})
	}
}

// TestFaultDeadlineCountsQueueWait: the deadline clock starts at
// Submit, so a request stuck in the admission queue past its deadline
// is answered StatusDeadline without ever running — queue wait is not
// free time on top of the documented end-to-end bound.
func TestFaultDeadlineCountsQueueWait(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1})
	// Wedge the only worker so the request can't leave the queue.
	release := make(chan struct{})
	if err := svc.pool.TrySubmit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	done := make(chan Response, 1)
	go func() {
		done <- svc.Submit(Request{
			ID: 9, Problem: "mis", Graph: "ring", N: 8,
			Deadline: 20 * time.Millisecond,
		})
	}()
	time.Sleep(100 * time.Millisecond) // let the deadline expire in the queue
	close(release)
	resp := <-done
	svc.Drain()
	if resp.Status != StatusDeadline {
		t.Fatalf("status %v (%s), want deadline", resp.Status, resp.Detail)
	}
	if !strings.Contains(resp.Detail, "queued") {
		t.Errorf("detail %q does not attribute the expiry to queue wait", resp.Detail)
	}
	if len(resp.Artifact) != 0 {
		t.Error("queued-past-deadline response carries an artifact")
	}
	assertNoLeaks(t, before)
}

// TestFaultOverload: with one worker and a queue of one, a burst of
// concurrent requests splits into the two documented outcomes — ok
// for the admitted, overloaded for the rejected — and every response
// is one of them.
func TestFaultOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, QueueDepth: 1})
	const burst = 12
	responses := make([]Response, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = svc.Submit(Request{
				ID: int64(i), Problem: "mst/randomized", Graph: "random", N: 400, Seed: int64(i),
			})
		}(i)
	}
	wg.Wait()
	svc.Drain()

	var ok, overloaded int
	for _, resp := range responses {
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusOverloaded:
			overloaded++
			if !strings.Contains(resp.Detail, "queue full") {
				t.Errorf("overload detail %q does not mention the queue", resp.Detail)
			}
		default:
			t.Errorf("request %d: undocumented burst outcome %v (%s)", resp.ID, resp.Status, resp.Detail)
		}
	}
	if ok == 0 || overloaded == 0 {
		t.Errorf("burst did not exercise both outcomes: %d ok, %d overloaded", ok, overloaded)
	}
	if got := svc.Metrics().Get("service/status/overloaded"); got != int64(overloaded) {
		t.Errorf("service/status/overloaded = %d, want %d", got, overloaded)
	}
	assertNoLeaks(t, before)
}

// TestFaultMalformedFrame: an undecodable frame is answered with the
// documented bad-frame response (ID -1, StatusInvalid), counted in
// service/frames/bad, and the connection is hung up.
func TestFaultMalformedFrame(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		// A uvarint length prefix far over MaxFrameBytes.
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		// A well-formed length prefix over a garbage body.
		{"garbage body", append([]byte{4}, 0xde, 0xad, 0xbe, 0xef)},
		// A response frame where a request belongs.
		{"wrong kind", mustFrame(Response{ID: 9, Status: StatusOK})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			svc := New(Config{Workers: 1})
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
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			resp, err := ReadResponse(br)
			if err != nil {
				t.Fatalf("no bad-frame response: %v", err)
			}
			if resp.ID != BadFrameID || resp.Status != StatusInvalid {
				t.Fatalf("bad frame answered with id=%d status=%v, want id=%d status=invalid",
					resp.ID, resp.Status, BadFrameID)
			}
			if !strings.Contains(resp.Detail, "malformed request frame") {
				t.Errorf("detail %q does not carry the documented code", resp.Detail)
			}
			// Past the bad-frame response the server hangs up.
			if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
				t.Errorf("connection still open after bad frame: %v", err)
			}
			if got := svc.Metrics().Get("service/frames/bad"); got != 1 {
				t.Errorf("service/frames/bad = %d, want 1", got)
			}
			srv.Shutdown()
			if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
				t.Errorf("Serve returned %v", err)
			}
			assertNoLeaks(t, before)
		})
	}
}

// TestFaultOversizedResponse: an admitted request whose rendered
// response exceeds MaxFrameBytes (a trace of a 1,024-node
// mst/randomized run is about 12 MB) is answered promptly with
// StatusInvalid naming the size and the cap, counted in
// service/status/invalid, and the connection keeps serving.
func TestFaultOversizedResponse(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1})
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
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)

	big := Request{ID: 60, Problem: "mst/randomized", Graph: "random", N: 1024, Seed: 1, WantTrace: true}
	if err := WriteRequest(conn, big); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(br)
	if err != nil {
		t.Fatalf("oversized response never answered: %v", err)
	}
	if resp.ID != big.ID || resp.Status != StatusInvalid {
		t.Fatalf("oversized response answered id=%d status=%v (%s), want %d/invalid",
			resp.ID, resp.Status, resp.Detail, big.ID)
	}
	if !strings.Contains(resp.Detail, fmt.Sprintf("over the %d-byte frame cap", MaxFrameBytes)) {
		t.Errorf("detail %q does not name the frame cap", resp.Detail)
	}

	small := Request{ID: 61, Problem: "mst/randomized", Graph: "random", N: 24, Seed: 1, WantTrace: true}
	if err := WriteRequest(conn, small); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadResponse(br)
	if err != nil {
		t.Fatalf("connection stopped serving after the oversized response: %v", err)
	}
	if resp.ID != small.ID || resp.Status != StatusOK || len(resp.Trace) == 0 {
		t.Fatalf("follow-up answered id=%d status=%v (%s) with %d trace bytes, want %d/ok with a trace",
			resp.ID, resp.Status, resp.Detail, len(resp.Trace), small.ID)
	}
	if got := svc.Metrics().Get("service/status/invalid"); got != 1 {
		t.Errorf("service/status/invalid = %d, want 1", got)
	}
	srv.Shutdown()
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v", err)
	}
	assertNoLeaks(t, before)
}

// mustFrame encodes a protocol message frame for test input.
func mustFrame(msg interface{}) []byte {
	buf, err := appendFrame(nil, msg)
	if err != nil {
		panic(err)
	}
	return buf
}

// TestFaultShutdownDrain: a drain beginning while a request is
// running lets it finish and delivers its response, rejects new
// requests with StatusShuttingDown, and leaves no goroutines behind —
// the mechanism behind the daemon's SIGTERM handling.
func TestFaultShutdownDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, QueueDepth: 1})
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

	// A request slow enough to still be running when the drain starts.
	if err := WriteRequest(conn, Request{ID: 50, Problem: "mst/randomized", Graph: "random", N: 512, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it be admitted
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()

	br := bufio.NewReader(conn)
	resp, err := ReadResponse(br)
	if err != nil {
		t.Fatalf("in-flight response lost in drain: %v", err)
	}
	if resp.ID != 50 || resp.Status != StatusOK {
		t.Fatalf("in-flight request answered id=%d status=%v (%s), want 50/ok", resp.ID, resp.Status, resp.Detail)
	}
	<-done
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// Post-drain submissions get the documented rejection.
	late := svc.Submit(Request{ID: 51, Problem: "mis", Graph: "ring", N: 8})
	if late.Status != StatusShuttingDown {
		t.Errorf("post-drain submit: status %v, want shutting-down", late.Status)
	}
	if got := svc.Metrics().Get("service/status/shutting-down"); got != 1 {
		t.Errorf("service/status/shutting-down = %d, want 1", got)
	}
	assertNoLeaks(t, before)
}

// requestGoroutines counts the live goroutines Server.handle started,
// one per request frame it read.
func requestGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by sleepmst/internal/service.(*Server).handle")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledRequestGoroutines polls requestGoroutines until it has held
// still for half a second and returns it; it gives up after a minute.
func settledRequestGoroutines(t *testing.T) int {
	t.Helper()
	const still = 500 * time.Millisecond
	count, since := requestGoroutines(), time.Now()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if n := requestGoroutines(); n != count {
			count, since = n, time.Now()
		} else if time.Since(since) >= still {
			return count
		}
	}
	t.Fatalf("request goroutine count never settled (last %d)", count)
	return 0
}

// TestFaultNeverReadingClient: a client that pipelines 200 traced
// requests (about 0.5 MB of response each) on one connection and never
// reads pins at most maxInFlight request goroutines, and Shutdown
// returns within writeTimeout: the write blocked on the full socket
// misses its deadline and the connection is dropped. Request
// goroutines are counted from a stack dump, because every running
// simulation adds its node coroutines to runtime.NumGoroutine.
func TestFaultNeverReadingClient(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 2})
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

	var frames []byte
	for i := 0; i < 200; i++ {
		frames = append(frames, mustFrame(Request{ID: int64(i), Problem: "mst/deterministic",
			Graph: "random", N: 48, Seed: int64(i), WantTrace: true})...)
	}
	// The frames fit in the socket buffers, so the write completes
	// even though the server stops reading at its in-flight cap.
	if err := conn.SetWriteDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}

	if pinned := settledRequestGoroutines(t); pinned > maxInFlight {
		t.Errorf("never-reading client pins %d request goroutines, want at most %d", pinned, maxInFlight)
	}

	done := make(chan struct{})
	start := time.Now()
	go func() { srv.Shutdown(); close(done) }()
	bound := writeTimeout + 5*time.Second
	select {
	case <-done:
	case <-time.After(bound):
		conn.Close() // fail the server's blocked writes so the test can end
		<-done
		t.Fatalf("Shutdown still blocked after %v with a never-reading client", bound)
	}
	t.Logf("Shutdown returned after %v", time.Since(start).Round(time.Millisecond))
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	conn.Close()
	assertNoLeaks(t, before)
}

// emfileListener fails its first `failures` Accept calls the way a
// process out of file descriptors does, then accepts normally.
type emfileListener struct {
	net.Listener
	failures int
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.failures > 0 {
		l.failures--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(),
			Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestFaultAcceptOutOfDescriptors: an Accept that fails with EMFILE
// does not end Serve. The server backs off and keeps accepting, and a
// client that connected meanwhile gets its request answered on the
// same Server.
func TestFaultAcceptOutOfDescriptors(t *testing.T) {
	svc := New(Config{Workers: 1})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(&emfileListener{Listener: ln, failures: 3}) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteRequest(conn, Request{ID: 9, Problem: "mis", Graph: "ring", N: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	answered := make(chan Response, 1)
	go func() {
		if resp, err := ReadResponse(bufio.NewReader(conn)); err == nil {
			answered <- resp
		}
	}()
	select {
	case resp := <-answered:
		if resp.ID != 9 || resp.Status != StatusOK {
			t.Errorf("response %d %v (%s), want 9 ok", resp.ID, resp.Status, resp.Detail)
		}
	case err := <-serveErr:
		t.Fatalf("Serve returned %v after a transient accept failure", err)
	case <-time.After(30 * time.Second):
		t.Fatal("request never answered")
	}
	srv.Shutdown()
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestFaultAdmissionBoundsEdges: requests whose topology would build
// millions of edges are answered invalid at admission, before any graph
// is built — the build runs ahead of the first round barrier, where no
// deadline reaches it.
func TestFaultAdmissionBoundsEdges(t *testing.T) {
	svc := New(Config{Workers: 1})
	for _, req := range []Request{
		{ID: 1, Problem: "mst/randomized", Graph: "random", N: DefaultMaxN, M: 1 << 40},
		{ID: 2, Problem: "mst/randomized", Graph: "complete", N: DefaultMaxN},
		{ID: 3, Problem: "mst/randomized", Graph: "sensor", N: DefaultMaxN, Radius: 2},
	} {
		answered := make(chan Response, 1)
		go func() { answered <- svc.Submit(req) }()
		select {
		case resp := <-answered:
			if resp.Status != StatusInvalid || !strings.Contains(resp.Detail, "edges") {
				t.Errorf("%s n=%d: %v (%s), want invalid naming the edge cap", req.Graph, req.N, resp.Status, resp.Detail)
			}
		case <-time.After(100 * time.Millisecond):
			// Admitted and building; Drain would wait for the build.
			t.Fatalf("%s n=%d: not answered within 100 ms", req.Graph, req.N)
		}
	}
	svc.Drain()
}
