package service

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sleepmst/internal/transport"
)

// fuzzSeeds are the interesting request-frame bodies: canonical
// encodings, truncations at every prefix length, oversized and
// non-minimal length fields, garbage, and frames of the wrong kind.
// The committed corpus under testdata/fuzz/FuzzDecodeRequest mirrors
// them (regenerate with SERVICE_REGEN_CORPUS=1).
func fuzzSeeds() [][]byte {
	full := Request{
		ID: 42, Problem: "mst/randomized", Graph: "sensor", N: 64, M: 128,
		Rows: 8, Radius: 0.25, Seed: -7, Transport: "tcp",
		TraceCap: 1 << 16, Deadline: 3 * time.Second, WantTrace: true,
	}
	zero := Request{}
	nan := Request{ID: 1, Problem: "mis", Graph: "sensor", N: 8, Radius: math.NaN()}
	enc := func(req Request) []byte {
		body, err := transport.EncodeMessage(nil, req)
		if err != nil {
			panic(err)
		}
		return body
	}
	fullBody := enc(full)
	seeds := [][]byte{
		fullBody,
		enc(zero),
		enc(nan),
		fullBody[:1],               // kind byte only
		fullBody[:len(fullBody)/2], // truncated mid-body
		append(fullBody[:len(fullBody):len(fullBody)], 0), // trailing byte
		{},                       // empty body
		{0xff, 0xff, 0xff, 0xff}, // unregistered kind, garbage
		{80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // request kind, absurd first varint
		{80, 2, 0xfe, 0xff, 0xff, 0xff, 0x0f},                            // string length over remaining bytes
	}
	if respBody, err := transport.EncodeMessage(nil, Response{ID: 3, Status: StatusOK}); err == nil {
		seeds = append(seeds, respBody) // wrong kind for DecodeRequest
	}
	return seeds
}

// FuzzDecodeRequest hardens the request decoder the same way
// trace.FuzzReadJSONL hardens the trace reader: arbitrary bytes must
// never panic or over-allocate, and whatever decodes must be stable —
// re-encoding the decoded request and decoding again must reproduce
// the same canonical bytes. The framed path (ReadRequest) is driven
// over the same input with a length prefix attached, so truncated and
// oversized frames exercise the cap-before-allocate guard.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err == nil {
			// Canonical re-encoding must be a fixed point (byte
			// comparison sidesteps NaN != NaN on Radius).
			enc, err := transport.EncodeMessage(nil, req)
			if err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			req2, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("canonical encoding does not decode: %v", err)
			}
			enc2, err := transport.EncodeMessage(nil, req2)
			if err != nil {
				t.Fatalf("re-decoded request does not re-encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("canonical encoding is not a fixed point:\n%x\n%x", enc, enc2)
			}
		}

		// The framed reader over the same body: must agree with the
		// body decoder and must never read past the declared length.
		framed, err := AppendRequest(nil, Request{ID: 1, Problem: "mis", Graph: "ring", N: 4})
		if err != nil {
			t.Fatal(err)
		}
		framed = append(framed, body...) // trailing garbage after a valid frame
		br := bufio.NewReader(bytes.NewReader(framed))
		if _, err := ReadRequest(br); err != nil {
			t.Fatalf("valid frame rejected with trailing garbage present: %v", err)
		}
	})
}

// submitSeeds are FuzzSubmit's seed requests: every transport value
// (the retired "inproc" included, which is answered invalid), the
// topologies the edge cap rejects at the default node cap (random with
// m = 2^40, complete, sensor with radius 2) and the one it rejects at
// the fuzzed service's cap, a tcp request at the default node cap, and
// deadlines at both ends of the fuzzed range.
func submitSeeds() []Request {
	return []Request{
		{ID: 1, Problem: "mis", Graph: "ring", N: 16, Seed: 1},
		{ID: 2, Problem: "mst/randomized", Graph: "random", N: 32, Seed: 2, Transport: "none"},
		{ID: 3, Problem: "mst/randomized", Graph: "random", N: 32, Seed: 3, Transport: "tcp", WantTrace: true},
		{ID: 4, Problem: "mis", Graph: "grid", N: 25, Seed: 4, Transport: "inproc"},
		{ID: 5, Problem: "mst/randomized", Graph: "random", N: DefaultMaxN, M: 1 << 40, Seed: 5},
		{ID: 6, Problem: "mst/randomized", Graph: "complete", N: DefaultMaxN, Seed: 6},
		{ID: 7, Problem: "mst/randomized", Graph: "sensor", N: DefaultMaxN, Radius: 2, Seed: 7},
		{ID: 8, Problem: "mst/ghs", Graph: "complete", N: 64, Seed: 8},
		{ID: 9, Problem: "mst/randomized", Graph: "random", N: DefaultMaxN, Seed: 9, Transport: "tcp"},
		{ID: 10, Problem: "mst/deterministic", Graph: "random", N: 64, M: 512, Seed: 10, Deadline: time.Millisecond},
		{ID: 11, Problem: "mis", Graph: "sensor", N: 64, Radius: 0.3, Seed: 11, Deadline: -time.Second},
		{ID: 12, Problem: "mst/logstar", Graph: "path", N: 48, Seed: 12, TraceCap: 64, Deadline: 2 * time.Second, WantTrace: true},
	}
}

// submitSlack is the time FuzzSubmit allows past a request's deadline:
// cancellation lands at the next round barrier, and certifying a run
// of at most 64 nodes takes milliseconds.
const submitSlack = time.Second

// FuzzSubmit drives Service.Submit with arbitrary requests, deadlines
// clamped to [-1s, 2s], against a service capped at 64 nodes. Whatever
// the request, the response must echo its ID with a documented status,
// no cell may panic, and the answer must arrive within the request's
// deadline (the service default for 0) plus submitSlack.
func FuzzSubmit(f *testing.F) {
	for _, q := range submitSeeds() {
		f.Add(q.ID, q.Problem, q.Graph, q.N, q.M, q.Rows, q.Radius, q.Seed, q.Transport, q.TraceCap, int64(q.Deadline), q.WantTrace)
	}
	const defaultDeadline = 2 * time.Second
	f.Fuzz(func(t *testing.T, id int64, prob, graph string, n, m, rows int, radius float64, seed int64,
		tx string, traceCap int, deadline int64, wantTrace bool) {
		req := Request{
			ID: id, Problem: prob, Graph: graph, N: n, M: m, Rows: rows, Radius: radius, Seed: seed,
			Transport: tx, TraceCap: traceCap, WantTrace: wantTrace,
			Deadline: min(max(time.Duration(deadline), -time.Second), 2*time.Second),
		}
		svc := New(Config{Workers: 1, MaxN: 64, DefaultDeadline: defaultDeadline})
		defer svc.Drain()
		bound := req.Deadline
		if bound == 0 {
			bound = defaultDeadline
		}
		bound = max(bound, 0) + submitSlack
		start := time.Now()
		resp := svc.Submit(req)
		if took := time.Since(start); took > bound {
			t.Errorf("answered after %v, bound %v (%v: %s)", took, bound, resp.Status, resp.Detail)
		}
		if resp.ID != req.ID {
			t.Errorf("response ID %d, request ID %d", resp.ID, req.ID)
		}
		if resp.Status >= statusCount {
			t.Errorf("undocumented status %v", resp.Status)
		}
		if strings.Contains(resp.Detail, "panic in request cell") {
			t.Errorf("request cell panicked: %s", resp.Detail)
		}
	})
}

// fuzzCorpus renders each fuzz target's seeds as `go test fuzz v1`
// files, keyed by target name.
func fuzzCorpus() map[string][]string {
	corpus := map[string][]string{}
	for _, seed := range fuzzSeeds() {
		corpus["FuzzDecodeRequest"] = append(corpus["FuzzDecodeRequest"],
			fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed))
	}
	for _, q := range submitSeeds() {
		corpus["FuzzSubmit"] = append(corpus["FuzzSubmit"], fmt.Sprintf(
			"go test fuzz v1\nint64(%d)\nstring(%q)\nstring(%q)\nint(%d)\nint(%d)\nint(%d)\nfloat64(%s)\nint64(%d)\nstring(%q)\nint(%d)\nint64(%d)\nbool(%t)\n",
			q.ID, q.Problem, q.Graph, q.N, q.M, q.Rows, strconv.FormatFloat(q.Radius, 'g', -1, 64), q.Seed,
			q.Transport, q.TraceCap, int64(q.Deadline), q.WantTrace))
	}
	return corpus
}

// TestRegenFuzzCorpus rewrites the committed seed corpora from
// fuzzSeeds and submitSeeds when SERVICE_REGEN_CORPUS=1; otherwise it
// verifies every seed file matches its seed and every other corpus file
// is in the `go test fuzz v1` format, so the seeds and the committed
// files cannot drift silently.
func TestRegenFuzzCorpus(t *testing.T) {
	regen := os.Getenv("SERVICE_REGEN_CORPUS") == "1"
	for target, files := range fuzzCorpus() {
		dir := filepath.Join("testdata", "fuzz", target)
		if regen {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, content := range files {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed_%02d", i)), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s corpus missing (run with SERVICE_REGEN_CORPUS=1 to generate): %v", target, err)
		}
		for i, content := range files {
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seed_%02d", i)))
			if err != nil || string(data) != content {
				t.Errorf("%s seed_%02d does not match its seed (regenerate with SERVICE_REGEN_CORPUS=1)", target, i)
			}
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
				t.Errorf("%s/%s is not in go test fuzz v1 format", target, e.Name())
			}
		}
	}
}
