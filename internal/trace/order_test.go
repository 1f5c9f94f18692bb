package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// fmtEvent is the fmt-based line renderer appendEvent must match.
func fmtEvent(ev Event) string {
	switch ev.Kind {
	case KindPhase:
		return fmt.Sprintf(`{"k":"phase","r":%d,"v":%d,"ph":%d,"f":%d}`+"\n", ev.Round, ev.Node, ev.Phase, ev.Frag)
	case KindStep:
		return fmt.Sprintf(`{"k":"step","r":%d,"v":%d,"ph":%d,"st":"%s","aw":%d}`+"\n", ev.Round, ev.Node, ev.Phase, ev.Step, ev.Aux)
	case KindMerge:
		return fmt.Sprintf(`{"k":"merge","r":%d,"v":%d,"f":%d,"pf":%d}`+"\n", ev.Round, ev.Node, ev.Frag, ev.Prev)
	case KindSleep:
		return fmt.Sprintf(`{"k":"sleep","r":%d,"v":%d,"from":%d}`+"\n", ev.Round, ev.Node, ev.Aux)
	case KindAwake:
		return fmt.Sprintf(`{"k":"awake","r":%d,"v":%d}`+"\n", ev.Round, ev.Node)
	case KindSend:
		return fmt.Sprintf(`{"k":"send","r":%d,"v":%d,"p":%d,"to":%d}`+"\n", ev.Round, ev.Node, ev.Port, ev.Peer)
	case KindDeliver:
		return fmt.Sprintf(`{"k":"deliver","r":%d,"v":%d,"p":%d,"from":%d}`+"\n", ev.Round, ev.Node, ev.Port, ev.Peer)
	case KindLost:
		return fmt.Sprintf(`{"k":"lost","r":%d,"v":%d,"p":%d,"to":%d}`+"\n", ev.Round, ev.Node, ev.Port, ev.Peer)
	case KindCrash:
		return fmt.Sprintf(`{"k":"crash","r":%d,"v":%d}`+"\n", ev.Round, ev.Node)
	case KindNbrs:
		return fmt.Sprintf(`{"k":"nbrs","r":%d,"v":%d,"ph":%d,"deg":%d}`+"\n", ev.Round, ev.Node, ev.Phase, ev.Aux)
	}
	return ""
}

// fmtJSONL is the fmt-based stream renderer WriteEventsJSONL must
// match.
func fmtJSONL(meta Meta, events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"k":"begin","n":%d}`+"\n", meta.N)
	for _, ev := range events {
		b.WriteString(fmtEvent(ev))
	}
	fmt.Fprintf(&b, `{"k":"end","rounds":%d,"events":%d,"dropped":%d}`+"\n", meta.Rounds, meta.Events, meta.Dropped)
	return b.String()
}

// TestAppendEventMatchesFmt pins the strconv renderer to the fmt
// format for every kind, including an unknown one (no line), with
// zero, negative and extreme int32/int64 fields and every step label.
func TestAppendEventMatchesFmt(t *testing.T) {
	i32 := []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32}
	i64 := []int64{0, 1, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	steps := append([]Step{StepNone, Step(200)}, Steps[:]...)
	var all []Event
	for k := KindPhase; k <= KindNbrs+1; k++ {
		for i := range 12 {
			ev := Event{
				Kind:  k,
				Round: i64[i%len(i64)],
				Frag:  i64[(i+1)%len(i64)],
				Prev:  i64[(i+2)%len(i64)],
				Aux:   i64[(i+3)%len(i64)],
				Node:  i32[i%len(i32)],
				Port:  i32[(i+1)%len(i32)],
				Peer:  i32[(i+2)%len(i32)],
				Phase: i32[(i+3)%len(i32)],
				Step:  steps[i%len(steps)],
			}
			want := fmtEvent(ev)
			if got := string(appendEvent([]byte("prefix"), &ev, new(roundText))); got != "prefix"+want {
				t.Errorf("appendEvent(%+v) = %q, want %q", ev, got, "prefix"+want)
			}
			if got := ev.String(); got != strings.TrimSuffix(want, "\n") {
				t.Errorf("String(%+v) = %q, want %q", ev, got, strings.TrimSuffix(want, "\n"))
			}
			all = append(all, ev)
		}
	}
	// Enough lines to cross WriteEventsJSONL's flush threshold a few
	// times.
	for len(all) < 4000 {
		all = append(all, all...)
	}
	for _, meta := range []Meta{{}, {N: 48, Rounds: 9000, Events: int64(len(all))}, {N: math.MaxInt32, Rounds: math.MinInt64, Events: -1, Dropped: math.MaxInt64}} {
		var b bytes.Buffer
		if err := WriteEventsJSONL(&b, meta, all); err != nil {
			t.Fatal(err)
		}
		if want := fmtJSONL(meta, all); b.String() != want {
			t.Errorf("meta %+v: WriteEventsJSONL differs from the fmt rendering (%d vs %d bytes)", meta, b.Len(), len(want))
		}
	}
}

// failWriter accepts limit bytes, then fails.
type failWriter struct{ limit int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		return 0, io.ErrShortWrite
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteEventsJSONLReportsWriteErrors: a failing writer's error
// comes back, whether it fails on a mid-stream flush or the last one.
func TestWriteEventsJSONLReportsWriteErrors(t *testing.T) {
	events := make([]Event, 5000)
	for i := range events {
		events[i] = Event{Kind: KindAwake, Round: int64(i), Node: int32(i % 7)}
	}
	var full bytes.Buffer
	if err := WriteEventsJSONL(&full, Meta{N: 7}, events); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, full.Len() / 2, full.Len() - 1} {
		if err := WriteEventsJSONL(&failWriter{limit: limit}, Meta{N: 7}, events); err == nil {
			t.Errorf("writer failing after %d of %d bytes: no error", limit, full.Len())
		}
	}
}
