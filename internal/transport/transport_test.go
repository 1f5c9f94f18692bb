package transport

import (
	"bufio"
	"bytes"
	"errors"
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
		Kind: 1, Name: "test/msg", Type: reflect.TypeOf(testMsg{}),
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

func TestFrameRoundTripAndWireBytes(t *testing.T) {
	frames := []Frame{
		{},
		{Round: 3, Seq: 0, From: 1, Port: 2, To: 4, Rev: 0, Payload: []byte{1, 2, 3}},
		{Round: 1 << 30, Seq: 17, From: 1000, Port: 63, To: 999, Rev: 62, Payload: bytes.Repeat([]byte{0xab}, 300)},
	}
	var stream []byte
	for _, f := range frames {
		enc := AppendFrame(nil, f)
		if got, want := FrameWireBytes(f), int64(len(enc)); got != want {
			t.Fatalf("FrameWireBytes(%+v) = %d, encoding is %d bytes", f, got, want)
		}
		stream = append(stream, enc...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for _, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Round != want.Round || got.Seq != want.Seq || got.From != want.From ||
			got.Port != want.Port || got.To != want.To || got.Rev != want.Rev ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame round trip: got %+v want %+v", got, want)
		}
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
	if st, ok := tx.(Statser); ok {
		s := st.TransportStats()
		want := int64(n * (n - 1))
		if s.FramesSent != want || s.FramesRecv != want {
			t.Fatalf("stats: sent %d recv %d, want %d", s.FramesSent, s.FramesRecv, want)
		}
		if s.WireBytes <= 0 {
			t.Fatalf("stats: WireBytes = %d", s.WireBytes)
		}
	}
}

func TestTCPExchange(t *testing.T) { exerciseBackend(t, NewTCP(TCPConfig{}), 5) }

func TestFaultyTCPExchange(t *testing.T) {
	tx := WithFaults(NewTCP(TCPConfig{}), FaultConfig{Seed: 11, DropProb: 0.5, DelayProb: 0.2, MaxDelay: time.Millisecond, Retries: 8})
	exerciseBackend(t, tx, 5)
	s := tx.TransportStats()
	if s.InjectedDrops == 0 {
		t.Fatalf("expected injected drops at DropProb=0.5, stats %+v", s)
	}
}

func TestFaultyPermanentDrop(t *testing.T) {
	tx := WithFaults(NewTCP(TCPConfig{RecvTimeout: 20 * time.Millisecond}), FaultConfig{Seed: 1, DropProb: 1, Retries: 0})
	if err := tx.Listen(2); err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	l, err := tx.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(Frame{Round: 1, To: 1}); err != nil {
		t.Fatalf("permanent drop should swallow the frame, got %v", err)
	}
	if _, err := tx.Recv(1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv after permanent drop: got %v, want ErrTimeout", err)
	}
}

func TestTCPRedialAfterBrokenConn(t *testing.T) {
	tx := NewTCP(TCPConfig{Retries: 4, Backoff: time.Millisecond})
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
	tx := NewTCP(TCPConfig{
		Retries: 2, Backoff: time.Millisecond,
		DialTimeout: 200 * time.Millisecond, RecvTimeout: 50 * time.Millisecond,
	})
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

// TestTCPRetriesConfig pins the Retries semantics: 0 keeps the zero
// config usable (default budget), NoRetries and any negative value
// mean single-attempt sends, and an exhausted zero budget returns a
// real wrapped cause rather than a nil-wrap ("%!w(<nil>)").
func TestTCPRetriesConfig(t *testing.T) {
	if got := (TCPConfig{}).withDefaults().Retries; got != DefaultRetries {
		t.Fatalf("zero config resolved to %d retries, want DefaultRetries", got)
	}
	if got := (TCPConfig{Retries: NoRetries}).withDefaults().Retries; got != 0 {
		t.Fatalf("NoRetries resolved to %d retries, want 0", got)
	}
	if got := (TCPConfig{Retries: -5}).withDefaults().Retries; got != 0 {
		t.Fatalf("Retries=-5 resolved to %d retries, want 0", got)
	}

	tx := NewTCP(TCPConfig{
		Retries: NoRetries, Backoff: time.Millisecond,
		DialTimeout: 200 * time.Millisecond,
	})
	if err := tx.Listen(2); err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	l, err := tx.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the destination and the established connection: the next
	// Send has no retry budget, so it must fail after one attempt.
	tx.listeners[1].Close()
	tl := l.(*tcpLink)
	tl.conn.Close()
	tl.conn = nil
	err = l.Send(Frame{Round: 1, To: 1})
	if err == nil {
		t.Fatal("Send with zero retry budget to a dead node should fail")
	}
	if msg := err.Error(); strings.Contains(msg, "%!w") || strings.Contains(msg, "<nil>") {
		t.Fatalf("Send error wraps a nil cause: %q", msg)
	}
	if s := tx.TransportStats(); s.SendRetries != 0 {
		t.Fatalf("zero budget still retried: stats %+v", s)
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
