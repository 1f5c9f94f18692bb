package service

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"sleepmst/internal/transport"
)

// The service request/response protocol: length-prefixed binary
// frames whose bodies are self-describing transport codec messages
// (kind range 80-95 per the internal/transport allocation). A client
// writes Request frames on a connection and reads Response frames
// back; responses carry the request's ID and may arrive out of order
// when the client pipelines. The decoder is hardened the same way the
// frame reader is: an oversized length prefix is stream corruption,
// not an allocation request, and a body must be consumed exactly.

// Codec kinds of the service protocol.
const (
	// KindRequest is the wire kind of Request.
	KindRequest = 80
	// KindResponse is the wire kind of Response.
	KindResponse = 81
)

// MaxFrameBytes bounds one request or response frame. Responses carry
// JSON artifacts and optional JSONL traces, so the cap is wider than
// the per-message transport cap.
const MaxFrameBytes = 8 << 20

// BadFrameID is the Response.ID the server uses when it answers an
// undecodable frame: the request's own ID never decoded, so no real
// ID can be echoed. The server hangs up after sending it (the stream
// may be corrupt beyond the one frame).
const BadFrameID = -1

// Status classifies one request's outcome. The String spellings are
// the documented error codes: they key the service/status/<status>
// metrics and appear in artifacts and reports.
type Status uint8

// The documented request outcomes.
const (
	// StatusOK: the run completed and the conformance verdict plus the
	// problem's correctness oracle both passed.
	StatusOK Status = iota
	// StatusViolation: the run completed but the verdict or the
	// oracle failed; the artifact holds the failing checks.
	StatusViolation
	// StatusInvalid: the request failed validation (unknown problem,
	// graph kind or transport; out-of-range n, rows, trace cap or
	// deadline; a per-kind topology minimum like ring n >= 3; or a
	// topology, requested or built, over the node or edge cap) — or,
	// with BadFrameID, the frame itself was undecodable.
	StatusInvalid
	// StatusOverloaded: the admission queue was full; the request was
	// rejected without running. Back off and retry.
	StatusOverloaded
	// StatusDeadline: the per-request deadline expired; the running
	// cell was canceled at a round barrier.
	StatusDeadline
	// StatusShuttingDown: the service is draining after SIGTERM; the
	// request was rejected without running.
	StatusShuttingDown
	// StatusInternal: an infrastructure failure (graph construction,
	// transport bring-up, simulator abort other than cancellation).
	StatusInternal

	statusCount // sentinel for decode validation
)

// String returns the documented spelling of the status code.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusViolation:
		return "violation"
	case StatusInvalid:
		return "invalid"
	case StatusOverloaded:
		return "overloaded"
	case StatusDeadline:
		return "deadline"
	case StatusShuttingDown:
		return "shutting-down"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Request is one certified-computation request: which problem to run
// on which topology with which seed, plus the per-request isolation
// knobs (wire backend, trace capacity, deadline). The zero value of
// every optional field means "service default".
type Request struct {
	// ID is the client-assigned correlation id echoed in the response.
	ID int64
	// Problem is the qualified problem name (e.g. "mst/randomized",
	// "mis") or a bare MST alias.
	Problem string
	// Graph is the topology kind: random|ring|path|grid|complete|sensor.
	Graph string
	// N is the node count (required, 1 <= N <= the service's MaxN).
	N int
	// M is the edge count for random graphs (0 = 2n).
	M int
	// Rows is the row count for grid graphs (0 = isqrt(n)).
	Rows int
	// Radius is the connection radius for sensor graphs (0 = 0.2).
	Radius float64
	// Seed seeds topology, weights, and algorithm randomness.
	Seed int64
	// Transport selects the per-request wire backend: "" or "none"
	// (in-memory), or "tcp".
	Transport string
	// TraceCap is the trace-recorder event capacity (0 = service
	// default; bounded by the service's MaxTraceCap).
	TraceCap int
	// Deadline bounds the request end to end (0 = service default); an
	// expired deadline cancels the running cell at a round barrier.
	Deadline time.Duration
	// WantTrace ships the full JSONL event trace in the response, so
	// clients can re-certify the verdict with conform.CheckTrace.
	WantTrace bool
}

// Response is the service's answer to one Request.
type Response struct {
	// ID echoes the request id (BadFrameID for undecodable frames).
	ID int64
	// Status is the documented outcome code.
	Status Status
	// Detail explains non-OK statuses.
	Detail string
	// Artifact is the per-request JSON artifact (see Artifact) for
	// StatusOK and StatusViolation; empty otherwise.
	Artifact []byte
	// Trace is the JSONL event trace when the request set WantTrace
	// and the run completed; empty otherwise.
	Trace []byte
}

func init() {
	transport.Register(transport.Codec{
		Kind: KindRequest, Name: "service/request", Type: reflect.TypeOf(Request{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			q := msg.(Request)
			w.Int(q.ID)
			w.Bytes([]byte(q.Problem))
			w.Bytes([]byte(q.Graph))
			w.Int(int64(q.N))
			w.Int(int64(q.M))
			w.Int(int64(q.Rows))
			w.Uint(math.Float64bits(q.Radius))
			w.Int(q.Seed)
			w.Bytes([]byte(q.Transport))
			w.Int(int64(q.TraceCap))
			w.Int(int64(q.Deadline))
			w.Bool(q.WantTrace)
		},
		Decode: func(r *transport.Reader) interface{} {
			return Request{
				ID:        r.Int(),
				Problem:   string(r.Bytes()),
				Graph:     string(r.Bytes()),
				N:         int(r.Int()),
				M:         int(r.Int()),
				Rows:      int(r.Int()),
				Radius:    math.Float64frombits(r.Uvarint()),
				Seed:      r.Int(),
				Transport: string(r.Bytes()),
				TraceCap:  int(r.Int()),
				Deadline:  time.Duration(r.Int()),
				WantTrace: r.Bool(),
			}
		},
	})
	transport.Register(transport.Codec{
		Kind: KindResponse, Name: "service/response", Type: reflect.TypeOf(Response{}),
		Encode: func(msg interface{}, w *transport.Writer) {
			p := msg.(Response)
			w.Int(p.ID)
			w.Uint(uint64(p.Status))
			w.Bytes([]byte(p.Detail))
			w.Bytes(p.Artifact)
			w.Bytes(p.Trace)
		},
		Decode: func(r *transport.Reader) interface{} {
			return Response{
				ID:       r.Int(),
				Status:   decodeStatus(r.Uvarint()),
				Detail:   string(r.Bytes()),
				Artifact: append([]byte(nil), r.Bytes()...),
				Trace:    append([]byte(nil), r.Bytes()...),
			}
		},
	})
}

// decodeStatus maps a raw wire status onto Status without letting the
// uint8 conversion wrap an out-of-range value (e.g. 256) back into a
// valid code: anything >= statusCount decodes to an invalid sentinel
// that DecodeResponse's unknown-status check rejects.
func decodeStatus(raw uint64) Status {
	if raw >= uint64(statusCount) {
		return Status(math.MaxUint8)
	}
	return Status(raw)
}

// responseFrameBound bounds the encoded frame body of p from its field
// lengths without encoding it: the codec adds one varint per field and
// one for the kind, each at most binary.MaxVarintLen64 bytes.
func responseFrameBound(p Response) int {
	return len(p.Detail) + len(p.Artifact) + len(p.Trace) + 6*binary.MaxVarintLen64
}

// appendFrame appends the length-prefixed encoding of a registered
// protocol message.
func appendFrame(buf []byte, msg interface{}) ([]byte, error) {
	body, err := transport.EncodeMessage(nil, msg)
	if err != nil {
		return nil, err
	}
	if len(body) > MaxFrameBytes {
		return nil, fmt.Errorf("service: %T frame is %d bytes, over the %d cap", msg, len(body), MaxFrameBytes)
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...), nil
}

// readFrameBody reads one length-prefixed frame body off br, capping
// the declared length before allocating.
func readFrameBody(br *bufio.Reader) ([]byte, error) {
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if length > MaxFrameBytes {
		return nil, fmt.Errorf("service: frame length %d exceeds cap %d (stream corrupt?)", length, MaxFrameBytes)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("service: truncated frame: %w", err)
	}
	return body, nil
}

// AppendRequest appends the length-prefixed frame encoding of req.
func AppendRequest(buf []byte, req Request) ([]byte, error) {
	return appendFrame(buf, req)
}

// DecodeRequest decodes one request frame body (without the length
// prefix): the exact inverse of AppendRequest's body. It rejects
// truncated bodies, trailing bytes, and frames of any other kind.
func DecodeRequest(body []byte) (Request, error) {
	msg, err := transport.DecodePayload(body)
	if err != nil {
		return Request{}, err
	}
	req, ok := msg.(Request)
	if !ok {
		return Request{}, fmt.Errorf("service: frame carries %T, want a request", msg)
	}
	return req, nil
}

// ReadRequest reads and decodes one request frame off br.
func ReadRequest(br *bufio.Reader) (Request, error) {
	body, err := readFrameBody(br)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(body)
}

// WriteRequest writes one request frame to w.
func WriteRequest(w io.Writer, req Request) error {
	buf, err := AppendRequest(nil, req)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendResponse appends the length-prefixed frame encoding of resp.
func AppendResponse(buf []byte, resp Response) ([]byte, error) {
	return appendFrame(buf, resp)
}

// DecodeResponse decodes one response frame body (without the length
// prefix), rejecting unknown status codes on top of the structural
// checks DecodeRequest applies.
func DecodeResponse(body []byte) (Response, error) {
	msg, err := transport.DecodePayload(body)
	if err != nil {
		return Response{}, err
	}
	resp, ok := msg.(Response)
	if !ok {
		return Response{}, fmt.Errorf("service: frame carries %T, want a response", msg)
	}
	if resp.Status >= statusCount {
		return Response{}, fmt.Errorf("service: response carries an unknown status code (>= %d)", uint8(statusCount))
	}
	return resp, nil
}

// ReadResponse reads and decodes one response frame off br.
func ReadResponse(br *bufio.Reader) (Response, error) {
	body, err := readFrameBody(br)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(body)
}

// WriteResponse writes one response frame to w.
func WriteResponse(w io.Writer, resp Response) error {
	buf, err := AppendResponse(nil, resp)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
