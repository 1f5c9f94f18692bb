package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceEvents is the order Events must reproduce: the rings
// gathered in (stream, sequence) order — scheduler first, then nodes
// by index, each oldest first — then a stable comparison sort by
// (Round, Node, Kind).
func referenceEvents(r *Recorder) []Event {
	var all []Event
	gather := func(s *stream) {
		var flat []Event
		oldest := 0
		for k, c := range s.chunks {
			if k == s.head {
				oldest = len(flat) + s.off
			}
			flat = append(flat, c...)
		}
		for i := 0; i < s.n; i++ {
			all = append(all, flat[(oldest+i)%len(flat)])
		}
	}
	gather(&r.sched)
	for i := range r.nodes {
		gather(&r.nodes[i])
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	return all
}

// randomRecorder drives a recorder through Event with
// rounds in [0, 2^roundBits) and scheduler-side nodes in [0,
// 2^nodeBits), or in [-2^bits, 2^bits) when negative is set. Node-side
// events use the run's own nodes, and every node ends with a Crash
// stamped at the lowest round the run can hold, below its earlier
// events.
func randomRecorder(rng *rand.Rand, capacity, roundBits, nodeBits int, negative bool) *Recorder {
	value := func(bits int) int64 {
		var v int64
		switch rng.Intn(4) {
		case 0:
			v = 0
		case 1:
			v = rng.Int63n(4)
		default:
			v = rng.Int63()
		}
		v &= int64(1)<<bits - 1
		if negative && rng.Intn(3) == 0 {
			v = -v - 1
		}
		return v
	}
	lowest := int64(0)
	if negative {
		lowest = -(int64(1) << roundBits)
	}
	n := 1 + rng.Intn(6)
	r := NewRecorder(capacity)
	r.Begin(n)
	for i, ops := 0, 50+rng.Intn(400); i < ops; i++ {
		round := value(roundBits)
		node := int(value(nodeBits))
		own := rng.Int31n(int32(n))
		msg := func(kind Kind) Event {
			return Event{Kind: kind, Round: round, Node: int32(node), Port: int32(rng.Intn(4)), Peer: int32(value(nodeBits))}
		}
		switch rng.Intn(10) {
		case 0:
			r.Event(Event{Kind: KindAwake, Round: round, Node: int32(node)})
		case 1:
			r.Event(msg(KindSend))
		case 2:
			r.Event(msg(KindDeliver))
		case 3:
			r.Event(msg(KindLost))
		case 4:
			r.Event(Event{Kind: KindSleep, Round: round, Node: own, Aux: value(roundBits)})
		case 5:
			r.Event(Event{Kind: KindPhase, Round: round, Node: own, Phase: 1 + rng.Int31n(5), Frag: value(40)})
		case 6:
			r.Event(Event{Kind: KindStep, Round: round, Node: own, Phase: 1 + rng.Int31n(5), Step: Steps[rng.Intn(len(Steps))], Aux: rng.Int63n(9)})
		case 7:
			r.Event(Event{Kind: KindMerge, Round: round, Node: own, Frag: value(40), Prev: value(40)})
		case 8:
			r.Event(Event{Kind: KindNbrs, Round: round, Node: own, Phase: 1 + rng.Int31n(5), Aux: int64(rng.Intn(5))})
		case 9:
			r.Event(Event{Kind: KindAwake, Round: round, Node: own})
		}
	}
	for v := int32(0); v < int32(n); v++ {
		r.Event(Event{Kind: KindCrash, Round: lowest, Node: v})
	}
	return r
}

// TestEventsMatchStableSort pins the radix ordering against a stable
// comparison sort on randomized recorders: ring overflow at capacity
// 64, crashes stamped below a node's earlier events, round 0 and
// negative rounds and nodes, rounds up to 2^40 (sim.DefaultMaxRounds)
// and beyond, and nodes up to and past 2^20 — every pass count from
// none to all eight Round bytes and four Node bytes.
func TestEventsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{64, 512, 0} {
		for _, roundBits := range []int{0, 1, 8, 9, 16, 24, 32, 40, 41, 48, 56, 63} {
			for _, nodeBits := range []int{0, 1, 8, 16, 20, 24, 31} {
				for _, negative := range []bool{false, true} {
					r := randomRecorder(rng, capacity, roundBits, nodeBits, negative)
					got, want := r.Events(), referenceEvents(r)
					if len(got) != len(want) || len(got) != r.Len() {
						t.Fatalf("cap=%d roundBits=%d nodeBits=%d negative=%v: %d events, reference %d, Len %d",
							capacity, roundBits, nodeBits, negative, len(got), len(want), r.Len())
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("cap=%d roundBits=%d nodeBits=%d negative=%v: event %d is %+v, reference %+v",
								capacity, roundBits, nodeBits, negative, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

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
			if got := string(appendEvent([]byte("prefix"), ev)); got != "prefix"+want {
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

// TestJSONLSizeMatchesRender: AppendEventsJSONL writes the bytes
// WriteEventsJSONL does, and a JSONL render that keeps no bytes counts
// their exact length, on randomized recorders (ring overflow, negative
// and extreme rounds and nodes, every kind) plus events of every step,
// StepNone, an unknown step and an unknown kind, under ordinary and
// extreme metadata.
func TestJSONLSizeMatchesRender(t *testing.T) {
	extra := []Event{
		{Kind: KindNbrs + 1, Round: 5, Node: 1},
		{Kind: KindStep, Step: StepNone},
		{Kind: KindStep, Round: math.MinInt64, Node: math.MinInt32, Phase: math.MaxInt32, Step: Step(200), Aux: math.MaxInt64},
	}
	for _, st := range Steps {
		extra = append(extra, Event{Kind: KindStep, Round: -1, Node: 7, Phase: 2, Step: st, Aux: -9})
	}
	rng := rand.New(rand.NewSource(2))
	for _, capacity := range []int{64, 512, 0} {
		for _, bits := range []int{0, 9, 31, 63} {
			for _, negative := range []bool{false, true} {
				r := randomRecorder(rng, capacity, bits, min(bits, 31), negative)
				events := append(r.Events(), extra...)
				for _, meta := range []Meta{r.Meta(), {N: math.MaxInt32, Rounds: math.MinInt64, Dropped: math.MaxInt64}} {
					meta.Events = int64(len(events))
					var w bytes.Buffer
					if err := WriteEventsJSONL(&w, meta, events); err != nil {
						t.Fatal(err)
					}
					got := AppendEventsJSONL([]byte("prefix"), meta, events)
					if string(got) != "prefix"+w.String() {
						t.Fatalf("cap=%d bits=%d negative=%v meta %+v: AppendEventsJSONL differs from WriteEventsJSONL",
							capacity, bits, negative, meta)
					}
					counted := NewJSONL(math.MaxInt64, 0)
					counted.Begin(meta.N)
					counted.Round(events)
					counted.End(meta)
					if counted.Len() != w.Len() {
						t.Fatalf("cap=%d bits=%d negative=%v meta %+v: counted %d bytes, rendered %d",
							capacity, bits, negative, meta, counted.Len(), w.Len())
					}
				}
			}
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
