package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
)

// The service workload's shape: an in-process service.Server with two
// workers on loopback, loaded by two closed-loop clients that each own
// one connection and keep one request outstanding. One process on a
// 2-core box therefore never has more than two connections of load.
const (
	serviceWorkers = 2
	serviceClients = 2
	// requestTimeout bounds one round trip: the server drops a response
	// over service.MaxFrameBytes without a word, and the read deadline
	// turns that into a counted failure instead of a hang.
	requestTimeout = 30 * time.Second
	// warmupIndex offsets the warm-up requests' list indices away from
	// the timed ones.
	warmupIndex = 1 << 32
	// serviceProblem is the requests' problem. mst/randomized would be
	// the natural choice, but at n <= 48 its awake count exceeds the
	// conformance budget (56·log2 n) in about 1 request in 5000 on
	// random, ring and grid graphs alike, and the service rightly
	// answers those with a violation; Deterministic-MST stays below 0.85
	// of its budget on the same mix and runs the same certification,
	// rendering and wire stages.
	serviceProblem = "mst/deterministic"
)

// serviceWorkload is the certified-MST daemon under closed-loop load.
type serviceWorkload struct {
	minReq int // timed requests always sent; the digest and re-certification cover them
	warmup int // untimed requests per set-up
	replay int // requests profiled, replayed stage by stage and submitted in-process by a traced run
}

// request returns entry i of the seeded request list, built with
// mstload's SplitMix64 recipe over an MST-only mix: serviceProblem on
// random, ring or grid topologies with n in [16, 48], traces shipped.
func request(seed, i int64) service.Request {
	h := splitmix(uint64(seed) + uint64(i)*0x9e3779b97f4a7c15)
	graphs := [...]string{"random", "ring", "grid"}
	return service.Request{
		ID:        i,
		Problem:   serviceProblem,
		Graph:     graphs[(h>>8)%uint64(len(graphs))],
		N:         16 + int((h>>16)%33),
		Seed:      int64(h >> 32),
		WantTrace: true,
	}
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// client is one closed-loop connection.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

// roundTrip writes req and reads its response under a deadline. After
// any error the connection is dropped, since the stream may be out of
// step, and the next call dials again.
func (cl *client) roundTrip(req service.Request) (service.Response, time.Duration, error) {
	if cl.conn == nil {
		conn, err := net.Dial("tcp", cl.addr)
		if err != nil {
			return service.Response{}, 0, fmt.Errorf("dial: %w", err)
		}
		cl.conn, cl.br = conn, bufio.NewReader(conn)
	}
	if err := cl.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return service.Response{}, 0, err
	}
	t0 := time.Now()
	err := service.WriteRequest(cl.conn, req)
	var resp service.Response
	if err == nil {
		resp, err = service.ReadResponse(cl.br)
	}
	lat := time.Since(t0)
	if err == nil && resp.ID != req.ID {
		err = fmt.Errorf("response for id %d, want %d", resp.ID, req.ID)
	}
	if err != nil {
		cl.conn.Close()
		cl.conn = nil
		return service.Response{}, lat, fmt.Errorf("request %d: %w", req.ID, err)
	}
	return resp, lat, nil
}

// loopback is a running server plus its clients.
type loopback struct {
	srv     *service.Server
	served  chan error
	clients []*client
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{srv: service.NewServer(service.New(service.Config{Workers: serviceWorkers})), served: make(chan error, 1)}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	for k := 0; k < serviceClients; k++ {
		lb.clients = append(lb.clients, &client{addr: ln.Addr().String()})
	}
	return lb, nil
}

// stop hangs up the clients, drains the server and waits for Serve to
// return.
func (lb *loopback) stop() {
	for _, cl := range lb.clients {
		if cl.conn != nil {
			cl.conn.Close()
		}
	}
	lb.srv.Shutdown()
	<-lb.served
}

// pass runs the closed loop: every client takes the next request from
// next and sends it once it has read its previous response. done is
// called from the client goroutines.
func (lb *loopback) pass(next func() (service.Request, bool), done func(service.Request, service.Response, time.Duration, error)) {
	var wg sync.WaitGroup
	for _, cl := range lb.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, ok := next()
				if !ok {
					return
				}
				resp, lat, err := cl.roundTrip(req)
				done(req, resp, lat, err)
			}
		}()
	}
	wg.Wait()
}

// list returns a next function over requests first..first+n-1.
func list(seed, first int64, n int) func() (service.Request, bool) {
	var mu sync.Mutex
	i := first
	return func() (service.Request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i >= first+int64(n) {
			return service.Request{}, false
		}
		i++
		return request(seed, i-1), true
	}
}

// record is what the timed phase keeps of one response: small enough
// to hold for every request, so that traces need not be kept.
type record struct {
	lat      time.Duration
	err      error
	status   service.Status
	detail   string
	artifact []byte
	traceSum [sha256.Size]byte
	payload  int
}

func (w serviceWorkload) run(c *runCtx) error {
	// Set-up is server start, client connections and the warm-up
	// requests; the last server stays up.
	span := c.spans.start("bench.setup", rootSpan)
	var lb *loopback
	setup, err := setupRepeatedly(func() error {
		if lb != nil {
			lb.stop()
		}
		var err error
		if lb, err = startLoopback(); err != nil {
			return err
		}
		lb.pass(list(c.seed, warmupIndex, w.warmup), func(req service.Request, resp service.Response, _ time.Duration, err error) {
			if err == nil && resp.Status != service.StatusOK {
				err = fmt.Errorf("status %s: %s", resp.Status, resp.Detail)
			}
			if err != nil {
				c.fail("warm-up request %d: %v", req.ID, err)
			}
		})
		return nil
	})
	if err != nil {
		return err
	}
	defer lb.stop()
	c.spans.end(span)
	c.set("setup_s", setup)

	// Timed phase: requests until the measuring window closes, and at
	// least minReq of them.
	span = c.spans.start("bench.timed", rootSpan)
	records := map[int64]*record{}
	var (
		mu   sync.Mutex
		sent int64
		last time.Time
	)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := sampleRSS()
	start := time.Now()
	lb.pass(func() (service.Request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if sent >= int64(w.minReq) && time.Since(start) >= c.seconds {
			return service.Request{}, false
		}
		sent++
		return request(c.seed, sent-1), true
	}, func(req service.Request, resp service.Response, lat time.Duration, err error) {
		r := &record{lat: lat, err: err, status: resp.Status, detail: resp.Detail, artifact: resp.Artifact,
			payload: len(resp.Detail) + len(resp.Artifact) + len(resp.Trace)}
		if req.ID < int64(w.minReq) {
			r.traceSum = sha256.Sum256(resp.Trace)
		}
		mu.Lock()
		records[req.ID] = r
		last = time.Now()
		mu.Unlock()
	})
	runtime.ReadMemStats(&after)
	elapsed := last.Sub(start)
	c.set("rss_p95_mb", rss.stop())
	c.spans.end(span)

	span = c.spans.start("bench.check", rootSpan)
	var lat []float64
	var okReqs int
	var maxPayload int
	for id := int64(0); id < sent; id++ {
		r := records[id]
		c.attempted++
		maxPayload = max(maxPayload, r.payload)
		if err := checkResponse(request(c.seed, id), r); err != nil {
			c.fail("%v", err)
			lat = append(lat, inf)
			continue
		}
		okReqs++
		lat = append(lat, ms(r.lat))
		if id < int64(w.minReq) {
			fmt.Fprintf(c.digest, "%d|%s|%x|", id, r.status, r.traceSum)
			c.digest.Write(r.artifact)
			fmt.Fprintln(c.digest)
		}
	}
	w.recheck(c, lb, records)
	c.spans.end(span)

	c.set("latency_p50_ms", quantile(lat, 0.5))
	c.set("ops_per_s", float64(okReqs)/elapsed.Seconds())
	c.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(max(okReqs, 1)))
	c.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(max(okReqs, 1)))
	c.set("service.latency_p99_ms", quantile(lat, 0.99))
	c.set("service.response_kb_max", float64(maxPayload)/1024)

	if c.spans != nil {
		return w.traced(c, lb, quantile(lat, 0.5))
	}
	return nil
}

// checkResponse checks one timed response: status ok, and an artifact
// whose verdict and Kruskal check passed and which echoes the
// request's id and seed.
func checkResponse(req service.Request, r *record) error {
	if r.err != nil {
		return r.err
	}
	if r.status != service.StatusOK {
		return fmt.Errorf("request %d: status %s: %s", req.ID, r.status, r.detail)
	}
	var a service.Artifact
	if err := json.Unmarshal(r.artifact, &a); err != nil {
		return fmt.Errorf("request %d: artifact does not parse: %w", req.ID, err)
	}
	if a.ID != req.ID || a.Seed != req.Seed {
		return fmt.Errorf("request %d: artifact echoes id=%d seed=%d, want seed=%d", req.ID, a.ID, a.Seed, req.Seed)
	}
	if a.Verdict == nil || !a.Verdict.Pass || !a.Run.VerifyPassed {
		return fmt.Errorf("request %d: verdict did not pass", req.ID)
	}
	return nil
}

// recheck re-certifies every 4th trace of the digest window after the
// timed phase. The timed phase kept only each trace's hash, so the
// request is sent again, the fresh trace must hash the same (the
// service is deterministic), and conform.CheckTrace replays it.
func (w serviceWorkload) recheck(c *runCtx, lb *loopback, records map[int64]*record) {
	p, err := problem.Lookup(serviceProblem)
	if err != nil {
		c.fail("%v", err)
		return
	}
	var mu sync.Mutex
	var ids []int64
	for id := int64(0); id < int64(w.minReq); id += 4 {
		ids = append(ids, id)
	}
	next := 0
	lb.pass(func() (service.Request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(ids) {
			return service.Request{}, false
		}
		next++
		return request(c.seed, ids[next-1]), true
	}, func(req service.Request, resp service.Response, _ time.Duration, err error) {
		if err == nil {
			err = recertify(p, req, resp, records[req.ID].traceSum)
		}
		if err != nil {
			c.fail("re-certify request %d: %v", req.ID, err)
		}
	})
	c.attempted += len(ids)
}

func recertify(p problem.Problem, req service.Request, resp service.Response, want [sha256.Size]byte) error {
	if sha256.Sum256(resp.Trace) != want {
		return fmt.Errorf("trace differs from the one shipped in the timed phase")
	}
	meta, events, err := trace.ReadJSONL(bytes.NewReader(resp.Trace))
	if err != nil {
		return fmt.Errorf("trace does not parse: %w", err)
	}
	var a service.Artifact
	if err := json.Unmarshal(resp.Artifact, &a); err != nil {
		return fmt.Errorf("artifact does not parse: %w", err)
	}
	v := conform.CheckTrace(meta, events, conform.RunInfo{Algorithm: a.Problem, N: a.N, Seed: req.Seed, Budget: p.Budget})
	if !v.Pass {
		return fmt.Errorf("conform.CheckTrace failed: %v", v.Failures())
	}
	return nil
}

// traced profiles a pass over the first replay requests, replays the
// same requests stage by stage from outside the service, and submits
// them in process without a socket.
func (w serviceWorkload) traced(c *runCtx, lb *loopback, timedP50 float64) error {
	span := c.spans.start("bench.profile", rootSpan)
	var tracedLat []float64
	var mu sync.Mutex
	shares, err := cpuProfile(c.profilePath, func() error {
		var firstErr error
		lb.pass(list(c.seed, 0, w.replay), func(req service.Request, resp service.Response, lat time.Duration, err error) {
			end := time.Now()
			c.spans.add("service.request", span, end.Add(-lat), end)
			mu.Lock()
			defer mu.Unlock()
			if err == nil && resp.Status != service.StatusOK {
				err = fmt.Errorf("request %d: status %s", req.ID, resp.Status)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			tracedLat = append(tracedLat, ms(lat))
		})
		return firstErr
	})
	c.spans.end(span)
	if err != nil {
		return err
	}
	for k, v := range shares {
		c.set(k, v)
	}
	c.set("bench.trace_overhead_ratio", quantile(tracedLat, 0.5)/timedP50)

	if err := w.replayStages(c); err != nil {
		return err
	}

	span = c.spans.start("bench.submit", rootSpan)
	defer c.spans.end(span)
	svc := service.New(service.Config{Workers: serviceWorkers})
	defer svc.Drain()
	next := list(c.seed, 0, w.replay)
	var submits []float64
	var wg sync.WaitGroup
	for k := 0; k < serviceClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req, ok := next(); ok; req, ok = next() {
				t0 := time.Now()
				resp := svc.Submit(req)
				t1 := time.Now()
				c.spans.add("service.submit", span, t0, t1)
				mu.Lock()
				submits = append(submits, ms(t1.Sub(t0)))
				if resp.Status != service.StatusOK {
					c.fail("in-process submit %d: status %s", req.ID, resp.Status)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c.set("service.submit_ms_p50", quantile(submits, 0.5))
	for _, k := range []string{"transport.overhead_ms", "transport.ns_per_frame", "transport.frames_sent", "transport.wire_kb", "transport.dials"} {
		c.set(k, 0) // the service runs its requests in memory
	}
	return nil
}

// replayStages repeats the service's per-request work one stage at a
// time, with a span around each: graph build, the run without and with
// a trace recorder, the conformance verdict, the Kruskal check, the
// artifact and response encoding, the JSONL rendering and the client's
// response decoding.
func (w serviceWorkload) replayStages(c *runCtx) error {
	p, err := problem.Lookup(serviceProblem)
	if err != nil {
		return err
	}
	span := c.spans.start("bench.replay", rootSpan)
	defer c.spans.end(span)
	var build, run, overhead, verdict, verify, jsonl, jsonlKB, encode, decode, respKB, perMsg []float64
	var totals simTotals
	for i := 0; i < w.replay; i++ {
		req := request(c.seed, int64(i))
		parent := c.spans.start("service.replay_request", span)
		var t [10]time.Time
		t[0] = time.Now()
		g, err := service.BuildGraph(req.Graph, req.N, req.M, req.Rows, req.Radius, req.Seed)
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		t[1] = time.Now()
		plain, err := p.Run(g, core.Options{Seed: req.Seed})
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		t[2] = time.Now()
		rec := trace.NewRecorder(service.DefaultTraceCap)
		r, err := p.Run(g, core.Options{Seed: req.Seed, Trace: rec})
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		t[3] = time.Now()
		v := conform.Suite{
			Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: req.Seed, Budget: p.Budget},
			Meta:   rec.Meta(),
			Events: rec.Events(),
			Extra:  []conform.Check{p.ConformCheck(g, r)},
		}.Verdict()
		t[4] = time.Now()
		verr := p.Verify(g, r)
		t[5] = time.Now()
		art, err := json.Marshal(artifact(req, g, r, v, verr == nil))
		if err != nil {
			return err
		}
		t[6] = time.Now()
		var b bytes.Buffer
		if err := rec.WriteJSONL(&b); err != nil {
			return err
		}
		t[7] = time.Now()
		frame, err := service.AppendResponse(nil, service.Response{ID: req.ID, Status: service.StatusOK, Artifact: art, Trace: b.Bytes()})
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		t[8] = time.Now()
		_, k := binary.Uvarint(frame)
		resp, err := service.DecodeResponse(frame[k:])
		t[9] = time.Now()
		if err != nil || resp.ID != req.ID {
			return fmt.Errorf("replay %d: response does not decode: %v", i, err)
		}
		if !v.Pass || verr != nil {
			c.fail("replay %d: verdict pass=%v, verify: %v", i, v.Pass, verr)
		}
		c.spans.end(parent)
		for j, name := range []string{"graph.build", "problem.run", "trace.record", "conform.verdict", "problem.verify",
			"service.artifact_json", "trace.write_jsonl", "service.encode_response", "service.decode_response"} {
			c.spans.add(name, parent, t[j], t[j+1])
		}
		d := func(j int) float64 { return ms(t[j+1].Sub(t[j])) }
		build = append(build, d(0))
		run = append(run, d(1))
		overhead = append(overhead, d(2)-d(1))
		verdict = append(verdict, d(3))
		verify = append(verify, d(4))
		encode = append(encode, d(5)+d(7))
		jsonl = append(jsonl, d(6))
		jsonlKB = append(jsonlKB, float64(b.Len())/1024)
		decode = append(decode, d(8))
		respKB = append(respKB, float64(len(frame))/1024)
		perMsg = append(perMsg, d(1)*1e6/float64(max(plain.Sim.MessagesSent, 1)))
		totals.add(plain.Sim)
	}
	c.set("graph.build_ms", median(build))
	c.set("problem.run_ms", median(run))
	c.set("trace.record_overhead_ms", median(overhead))
	c.set("conform.verdict_ms", median(verdict))
	c.set("problem.verify_ms", median(verify))
	c.set("trace.write_jsonl_ms", median(jsonl))
	c.set("trace.jsonl_kb", median(jsonlKB))
	c.set("service.encode_response_ms", median(encode))
	c.set("service.decode_response_ms", median(decode))
	c.set("service.response_kb", median(respKB))
	c.set("sim.ns_per_message", median(perMsg))
	totals.set(c)
	return nil
}

// artifact builds the response artifact the way the service does.
func artifact(req service.Request, g *graph.Graph, r *problem.Result, v *conform.Verdict, verified bool) service.Artifact {
	s := r.Sim
	return service.Artifact{
		Schema: service.ArtifactSchema, ID: req.ID, Problem: r.Problem, Graph: req.Graph,
		N: g.N(), M: g.M(), Seed: req.Seed, Verdict: v,
		Run: service.RunSummary{
			AwakeMax: s.MaxAwake(), AwakeAvg: s.MeanAwake(), Rounds: s.Rounds, BusyRounds: s.BusyRounds,
			Sent: s.MessagesSent, Delivered: s.MessagesDelivered, Lost: s.MessagesLost, BitsSent: s.BitsSent,
			MSTWeight: graph.TotalWeight(r.Outcome.MSTEdges), Phases: r.Phases, VerifyPassed: verified,
		},
	}
}
