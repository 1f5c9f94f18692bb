package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testMsg exercises every Writer/Reader primitive, nested payloads
// included.
type testMsg struct {
	A    int64
	B    uint64
	C    bool
	Body interface{}
}

func init() {
	Register(Codec{
		Kind: 1, Type: reflect.TypeOf(testMsg{}),
		Encode: func(msg interface{}, w *Writer) {
			m := msg.(testMsg)
			w.Int(m.A)
			w.Uint(m.B)
			w.Bool(m.C)
			w.Nested(m.Body)
		},
		Decode: func(r *Reader) interface{} {
			return testMsg{A: r.Int(), B: r.Uvarint(), C: r.Bool(), Body: r.Nested()}
		},
	})
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []interface{}{
		nil,
		testMsg{A: -7, B: 300, C: true},
		testMsg{A: 1 << 40, Body: testMsg{A: 2, C: false}},
		testMsg{Body: testMsg{Body: testMsg{B: 9}}},
	}
	for _, msg := range cases {
		buf, err := EncodeMessage(nil, msg)
		if err != nil {
			t.Fatalf("encode %#v: %v", msg, err)
		}
		got, err := DecodePayload(buf)
		if err != nil {
			t.Fatalf("decode %#v: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip: got %#v want %#v", got, msg)
		}
	}
}

func TestEncodeUnregisteredType(t *testing.T) {
	if _, err := EncodeMessage(nil, struct{ X int }{1}); err == nil {
		t.Fatal("expected error for unregistered top-level type")
	}
	var err error
	func() {
		defer RecoverEncode(&err)
		_, err = EncodeMessage(nil, testMsg{Body: struct{ X int }{1}})
	}()
	if err == nil {
		t.Fatal("expected error for unregistered nested type")
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := DecodePayload([]byte{0xff, 0x01}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	good, err := EncodeMessage(nil, testMsg{A: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(good[:len(good)-1]); err == nil {
		t.Fatal("expected error for truncated body")
	}
	if _, err := DecodePayload(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}

// appendFrameReference is the frame encoding built body first and
// then copied behind its length prefix: the reference AppendFrame's
// single pass must reproduce byte for byte.
func appendFrameReference(buf []byte, f Frame) []byte {
	body := binary.AppendVarint(nil, f.Round)
	body = binary.AppendVarint(body, f.Seq)
	for _, v := range []int32{f.From, f.Port, f.To, f.Rev} {
		body = binary.AppendVarint(body, int64(v))
	}
	body = binary.AppendUvarint(body, uint64(len(f.Payload)))
	body = append(body, f.Payload...)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

func TestFrameRoundTripAndWireBytes(t *testing.T) {
	frames := []Frame{
		{},
		{Round: 3, Seq: 0, From: 1, Port: 2, To: 4, Rev: 0, Payload: []byte{1, 2, 3}},
		{Round: 1 << 30, Seq: 17, From: 1000, Port: 63, To: 999, Rev: 62, Payload: bytes.Repeat([]byte{0xab}, 300)},
		{Round: -1, Seq: -5, From: -1, Port: -64, To: -65, Rev: -1 << 31},
		{Round: math.MaxInt64, Seq: math.MinInt64, From: math.MaxInt32, Port: math.MinInt32,
			To: math.MaxInt32, Rev: math.MinInt32, Payload: []byte{0}},
	}
	// Bodies of 126 to 16,384 bytes straddle the one-, two- and
	// three-byte length prefixes: the prefix encodes the body length,
	// so a 127-byte body makes a 128-byte frame.
	for _, body := range []int{126, 127, 128, 16383, 16384} {
		frames = append(frames, frameOfBody(t, body))
	}
	var stream []byte
	for _, f := range frames {
		enc := AppendFrame(nil, f)
		if ref := appendFrameReference(nil, f); !bytes.Equal(enc, ref) {
			t.Fatalf("AppendFrame(%+v) differs from the body-then-copy encoding:\n got %x\nwant %x", f, enc, ref)
		}
		if got, want := FrameWireBytes(f), int64(len(enc)); got != want {
			t.Fatalf("FrameWireBytes(%+v) = %d, encoding is %d bytes", f, got, want)
		}
		stream = append(stream, enc...)
	}
	fr := newFrameReader(bytes.NewReader(stream))
	for _, want := range frames {
		got, err := fr.read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got.Round != want.Round || got.Seq != want.Seq || got.From != want.From ||
			got.Port != want.Port || got.To != want.To || got.Rev != want.Rev ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame round trip: got %+v want %+v", got, want)
		}
	}
}

// TestAppendFrameAllocatesNothing: a frame is encoded straight into a
// buffer with spare capacity, as tcpLink.Send reuses its buffer.
func TestAppendFrameAllocatesNothing(t *testing.T) {
	f := Frame{Round: 9, Seq: 2, From: 3, Port: 1, To: 4, Rev: 0, Payload: bytes.Repeat([]byte{7}, 40)}
	buf := make([]byte, 0, 256)
	if a := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], f) }); a != 0 {
		t.Errorf("AppendFrame allocates %.1f times per frame, want 0", a)
	}
}

func TestFrameQueue(t *testing.T) {
	q := newFrameQueue()
	q.push(Frame{Round: 1})
	q.push(Frame{Round: 2})
	for want := int64(1); want <= 2; want++ {
		f, err := q.pop(time.Second)
		if err != nil || f.Round != want {
			t.Fatalf("pop: got (%+v, %v), want round %d", f, err, want)
		}
	}
	if _, err := q.pop(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("pop on empty queue: got %v, want ErrTimeout", err)
	}
	q.push(Frame{Round: 3})
	q.close()
	if f, err := q.pop(time.Second); err != nil || f.Round != 3 {
		t.Fatalf("pop drains buffered frame after close: got (%+v, %v)", f, err)
	}
	if _, err := q.pop(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop after close: got %v, want ErrClosed", err)
	}
}

// exerciseBackend runs an all-pairs exchange over tx and checks every
// frame arrives intact.
func exerciseBackend(t *testing.T, tx Transport, n int) {
	t.Helper()
	if err := tx.Listen(n); err != nil {
		t.Fatalf("Listen(%d): %v", n, err)
	}
	defer tx.Close()
	payload, err := EncodeMessage(nil, testMsg{A: 42, C: true})
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			l, err := tx.Dial(from, to)
			if err != nil {
				t.Fatalf("Dial(%d, %d): %v", from, to, err)
			}
			f := Frame{Round: 7, From: int32(from), To: int32(to), Payload: payload}
			if err := l.Send(f); err != nil {
				t.Fatalf("Send %d->%d: %v", from, to, err)
			}
		}
	}
	for to := 0; to < n; to++ {
		seen := map[int32]bool{}
		for i := 0; i < n-1; i++ {
			f, err := tx.Recv(to)
			if err != nil {
				t.Fatalf("Recv(%d) #%d: %v", to, i, err)
			}
			if f.To != int32(to) || f.Round != 7 || seen[f.From] {
				t.Fatalf("Recv(%d): unexpected frame %+v", to, f)
			}
			seen[f.From] = true
			msg, err := DecodePayload(f.Payload)
			if err != nil {
				t.Fatalf("Recv(%d): decode: %v", to, err)
			}
			if got := msg.(testMsg); got.A != 42 || !got.C {
				t.Fatalf("Recv(%d): payload %#v", to, got)
			}
		}
	}
}

func TestTCPExchange(t *testing.T) {
	const n = 5
	tx := NewTCP(TCPConfig{})
	exerciseBackend(t, tx, n)
	s := tx.TransportStats()
	if want := int64(n * (n - 1)); s.FramesSent != want || s.FramesRecv != want {
		t.Fatalf("stats: sent %d recv %d, want %d", s.FramesSent, s.FramesRecv, want)
	}
	if s.WireBytes <= 0 {
		t.Fatalf("stats: WireBytes = %d", s.WireBytes)
	}
}

func TestTCPRedialAfterBrokenConn(t *testing.T) {
	tx := NewTCP(TCPConfig{})
	if err := tx.Listen(2); err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	l, err := tx.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(Frame{Round: 1, To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Recv(1); err != nil {
		t.Fatal(err)
	}
	// Break the established connection under the link; the next Send
	// must redial and still deliver.
	tl := l.(*tcpLink)
	tl.conn.Close()
	if err := l.Send(Frame{Round: 2, To: 1}); err != nil {
		t.Fatalf("Send after broken conn: %v", err)
	}
	f, err := tx.Recv(1)
	if err != nil || f.Round != 2 {
		t.Fatalf("Recv after redial: got (%+v, %v)", f, err)
	}
	if s := tx.TransportStats(); s.Dials < 2 {
		t.Fatalf("expected a redial, stats %+v", s)
	}
}

// TestTCPDialDeadListener is the regression test for the Dial
// self-deadlock: Dial used to hold t.mu across connect(), whose
// closed-flag check re-locked the non-reentrant mutex on any failed
// attempt — Dial hung forever and wedged Recv/Close behind the lock.
// Dialing a node whose listener is gone must instead return the
// documented dial error, with the rest of the backend still live.
func TestTCPDialDeadListener(t *testing.T) {
	tx := NewTCP(TCPConfig{RecvTimeout: 50 * time.Millisecond})
	if err := tx.Listen(2); err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	tx.listeners[1].Close()
	done := make(chan error, 1)
	go func() {
		_, err := tx.Dial(0, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial to a dead listener should fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dial deadlocked instead of returning the dial error")
	}
	// t.mu must be free again: Recv times out normally and Close
	// returns instead of blocking behind a stuck Dial.
	if _, err := tx.Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv after failed Dial: got %v, want ErrTimeout", err)
	}
	if err := tx.Close(); err != nil {
		t.Fatalf("Close after failed Dial: %v", err)
	}
}

// TestTCPRetriesConfig pins the send retry budget: a Send to a dead
// node retries Retries times, then returns a real wrapped cause rather
// than a nil-wrap ("%!w(<nil>)").
func TestTCPRetriesConfig(t *testing.T) {
	tx := NewTCP(TCPConfig{})
	if err := tx.Listen(2); err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	l, err := tx.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the destination and the established connection: the next
	// Send must fail once its retry budget is spent.
	tx.listeners[1].Close()
	tl := l.(*tcpLink)
	tl.conn.Close()
	tl.conn = nil
	err = l.Send(Frame{Round: 1, To: 1})
	if err == nil {
		t.Fatal("Send to a dead node should fail")
	}
	if msg := err.Error(); strings.Contains(msg, "%!w") || strings.Contains(msg, "<nil>") {
		t.Fatalf("Send error wraps a nil cause: %q", msg)
	}
	if s := tx.TransportStats(); s.SendRetries != Retries {
		t.Fatalf("Send retried %d times, want %d: stats %+v", s.SendRetries, Retries, s)
	}
}

func TestListenValidation(t *testing.T) {
	tx := NewTCP(TCPConfig{})
	if err := tx.Listen(0); err == nil {
		t.Fatal("Listen(0) should fail")
	}
	if err := tx.Listen(2); err != nil {
		t.Fatalf("Listen(2): %v", err)
	}
	if err := tx.Listen(2); err == nil {
		t.Fatal("double Listen should fail")
	}
	if _, err := tx.Dial(0, 5); err == nil {
		t.Fatal("Dial out of range should fail")
	}
	tx.Close()
	if _, err := tx.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close: got %v, want ErrClosed", err)
	}
}
