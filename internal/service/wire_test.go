package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"sleepmst/internal/trace"
)

// TestResponseWireFormat pins the response frame. For every status,
// with and without a detail, an artifact and a trace — including
// traces whose length prefix takes two and three bytes —
// AppendResponse and WriteResponse produce the bytes of the generic
// codec frame (appendFrame, which responses used before they were
// written around their trace), and so does WriteResponseParts with the
// trace in no part, one part, or many cut at odd lengths, an empty one
// among them; ReadResponse round-trips them. A decoded response's
// Detail and Artifact must survive its frame body being overwritten:
// only Trace may alias the body, so keeping an artifact never keeps a
// whole frame alive.
func TestResponseWireFormat(t *testing.T) {
	long := bytes.Repeat([]byte(`{"k":"awake","r":1,"v":0}`+"\n"), 1000)
	traces := [][]byte{nil, []byte(`{"k":"begin","n":1}` + "\n"), long[:200], long}
	for st := Status(0); st < statusCount; st++ {
		for _, detail := range []string{"", "failed: awake-budget"} {
			for _, artifact := range [][]byte{nil, []byte(`{"schema":1,"id":7}`)} {
				for _, tr := range traces {
					resp := Response{ID: int64(st)*1000 - 1, Status: st, Detail: detail, Artifact: artifact, Trace: tr}
					want, err := appendFrame(nil, resp)
					if err != nil {
						t.Fatal(err)
					}
					got, err := AppendResponse([]byte("prefix"), resp)
					if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
						t.Fatalf("%+v: AppendResponse differs from the codec frame (err %v)", resp, err)
					}
					for _, parts := range traceParts(tr) {
						var w bytes.Buffer
						bare := resp
						bare.Trace = nil
						if err := WriteResponseParts(&w, bare, parts); err != nil || !bytes.Equal(w.Bytes(), want) {
							t.Fatalf("%+v: WriteResponseParts with %d parts differs from the codec frame (err %v)", resp, len(parts), err)
						}
					}
					var w bytes.Buffer
					if err := WriteResponse(&w, resp); err != nil || !bytes.Equal(w.Bytes(), want) {
						t.Fatalf("%+v: WriteResponse differs from the codec frame (err %v)", resp, err)
					}
					dec, err := ReadResponse(bufio.NewReader(&w))
					if err != nil {
						t.Fatal(err)
					}
					if dec.ID != resp.ID || dec.Status != st || dec.Detail != detail ||
						!bytes.Equal(dec.Artifact, artifact) || !bytes.Equal(dec.Trace, tr) {
						t.Fatalf("ReadResponse = %+v, want %+v", dec, resp)
					}
					_, k := binary.Uvarint(want)
					body := want[k:]
					dec, err = DecodeResponse(body)
					if err != nil {
						t.Fatal(err)
					}
					for i := range body {
						body[i] = 0xff
					}
					if dec.Detail != detail || !bytes.Equal(dec.Artifact, artifact) {
						t.Fatalf("%+v: overwriting the body changed the decoded detail or artifact", resp)
					}
				}
			}
		}
	}
}

// traceParts returns ways to cut tr into parts: one part, many parts
// of 1, 3, 5, ... bytes after an empty one, and, for an empty trace, no
// part at all.
func traceParts(tr []byte) [][][]byte {
	many := [][]byte{{}}
	for i, k := 0, 1; i < len(tr); i, k = i+k, k+2 {
		many = append(many, tr[i:min(i+k, len(tr))])
	}
	out := [][][]byte{{tr}, many}
	if len(tr) == 0 {
		out = append(out, nil)
	}
	return out
}

// TestResponseFrameCap: the cap applies to the exact frame body on
// both encoders, at the same length the codec frame's cap does.
func TestResponseFrameCap(t *testing.T) {
	// A body of kind, ID, status, empty detail and artifact (one byte
	// each) and a four-byte trace length prefix is the trace plus 9.
	fits := make([]byte, MaxFrameBytes-9)
	for _, tc := range []struct {
		trace []byte
		ok    bool
	}{{fits, true}, {append(fits, '\n'), false}} {
		resp := Response{ID: 1, Trace: tc.trace}
		_, refErr := appendFrame(nil, resp)
		_, appendErr := AppendResponse(nil, resp)
		var w bytes.Buffer
		writeErr := WriteResponse(&w, resp)
		if (refErr == nil) != tc.ok || (appendErr == nil) != tc.ok || (writeErr == nil) != tc.ok {
			t.Errorf("%d trace bytes: codec frame err %v, AppendResponse err %v, WriteResponse err %v; want ok=%v",
				len(tc.trace), refErr, appendErr, writeErr, tc.ok)
		}
		if !tc.ok && w.Len() != 0 {
			t.Errorf("over-cap WriteResponse wrote %d bytes", w.Len())
		}
	}
}

// TestTracedRequestAllocations gates what one traced request allocates
// from Submit through WriteResponse and ReadResponse, in units of its
// trace: the benchmark's stage request (Deterministic-MST, random
// n=48, m=96; 27,454 events, 1.2 MB of JSONL) must allocate under half
// an event array plus 3.25 JSONL renders, 4.7 MB. Certified as the run
// goes, it holds no event array: the simulation itself, the render's
// chunks, their exactly sized copy and one frame body read back come
// to 4.4 MB. Recording the whole trace in chunked rings, then ordering
// it into two buffers, came to 8.1 MB. The minimum of five tries
// discounts allocation by anything else running.
func TestTracedRequestAllocations(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain()
	req := Request{ID: 1, Problem: "mst/deterministic", Graph: "random", N: 48, M: 96, Seed: 48000, WantTrace: true}
	var (
		best   uint64
		events int64
		jsonl  int
		ms     runtime.MemStats
	)
	frame := make([]byte, 0, 4<<20) // the socket's side of the wire: not the request's cost
	for try := 0; try < 5; try++ {
		w := bytes.NewBuffer(frame)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		resp := svc.Submit(req)
		if err := WriteResponse(w, resp); err != nil {
			t.Fatal(err)
		}
		dec, err := ReadResponse(bufio.NewReader(w))
		runtime.ReadMemStats(&ms)
		if err != nil || dec.Status != StatusOK {
			t.Fatalf("status %v (%s), err %v", dec.Status, dec.Detail, err)
		}
		if used := ms.TotalAlloc - before; try == 0 || used < best {
			best = used
		}
		meta, _, err := trace.ReadJSONL(bytes.NewReader(dec.Trace))
		if err != nil {
			t.Fatal(err)
		}
		events, jsonl = meta.Events, len(dec.Trace)
	}
	eventBytes := float64(events) * float64(unsafe.Sizeof(trace.Event{}))
	limit := 0.5*eventBytes + 3.25*float64(jsonl)
	if float64(best) > limit {
		t.Errorf("a traced request allocated %d bytes, over the band of %.0f (0.5 × %.0f event bytes + 3.25 × %d JSONL bytes)",
			best, limit, eventBytes, jsonl)
	}
}

// TestServedTraceAllocations gates what serving one traced request
// allocates, in units of its response frame: the stage request of
// TestTracedRequestAllocations, served through a loopback Server, must
// allocate at most 1.75 frames. The server ships the trace in the
// chunks it was rendered into; joining them into one slice first, as
// the server once did, came to 2.43 frames. The client reads
// each frame through one fixed buffer, so the process's allocation is
// the server's. The minimum of five tries discounts allocation by
// anything else running.
func TestServedTraceAllocations(t *testing.T) {
	srv := NewServer(New(Config{Workers: 1}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	req, err := AppendRequest(nil, Request{ID: 1, Problem: "mst/deterministic", Graph: "random", N: 48, M: 96, Seed: 48000, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// One round trip, decoded, checks the response and sizes its frame.
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(br)
	if err != nil || resp.Status != StatusOK || len(resp.Trace) == 0 {
		t.Fatalf("status %v (%s), %d trace bytes, err %v", resp.Status, resp.Detail, len(resp.Trace), err)
	}
	wantFrame, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	frame := uint64(len(wantFrame))

	var (
		best uint64
		ms   runtime.MemStats
		buf  = make([]byte, 64<<10)
	)
	for try := 0; try < 5; try++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			t.Fatal(err)
		}
		for left := size; left > 0; {
			n, err := br.Read(buf[:min(uint64(len(buf)), left)])
			if err != nil {
				t.Fatal(err)
			}
			left -= uint64(n)
		}
		runtime.ReadMemStats(&ms)
		if got := size + uint64(binary.PutUvarint(buf, size)); got != frame {
			t.Fatalf("try %d: a %d-byte frame, want %d", try, got, frame)
		}
		if used := ms.TotalAlloc - before; try == 0 || used < best {
			best = used
		}
	}
	t.Logf("serving a %d-byte frame allocated %d bytes, %.2f frames", frame, best, float64(best)/float64(frame))
	if limit := 1.75 * float64(frame); float64(best) > limit {
		t.Errorf("serving a %d-byte frame allocated %d bytes, %.2f frames, over 1.75", frame, best, float64(best)/float64(frame))
	}
}
