package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzReadJSONL hardens the trace reader against arbitrary input: it
// must never panic, and whatever it does accept must round-trip —
// re-rendering the parsed events through the canonical writer and
// re-parsing must reproduce the exact same events. The committed
// corpus under testdata/fuzz/FuzzReadJSONL seeds the interesting
// shapes: full valid traces, truncated lines, negative coordinates,
// unknown kinds, and overflowing numbers.
func FuzzReadJSONL(f *testing.F) {
	valid := `{"k":"begin","n":4}
{"k":"phase","r":1,"v":0,"ph":1,"f":7}
{"k":"awake","r":1,"v":0}
{"k":"send","r":1,"v":0,"p":0,"to":1}
{"k":"deliver","r":1,"v":1,"p":0,"from":0}
{"k":"lost","r":1,"v":2,"p":1,"to":3}
{"k":"sleep","r":4,"v":3,"from":1}
{"k":"step","r":2,"v":0,"ph":1,"st":"find-moe","aw":1}
{"k":"merge","r":2,"v":0,"f":3,"pf":7}
{"k":"crash","r":2,"v":2}
{"k":"nbrs","r":2,"v":0,"ph":1,"deg":3}
{"k":"end","rounds":4,"events":10,"dropped":0}
`
	seeds := []string{
		valid,
		`{"k":"begin","n":4}` + "\n" + `{"k":"awake","r":1`,               // truncated line
		`{"k":"awake","r":-1,"v":0}`,                                      // negative coordinate
		`{"k":"mystery","r":1,"v":0}`,                                     // unknown kind
		`{"k":"step","r":1,"v":0,"ph":1,"st":"warp","aw":1}`,              // unknown step
		`{"k":"deliver","r":1,"v":1,"p":0,"from":99999999999}`,            // sender overflows int32
		`{"k":"awake","r":9223372036854775807,"v":2147483647}`,            // extreme but valid numbers
		"\n\n  \n" + `{"k":"begin","n":1}` + "\n\n",                       // blank-line padding
		`{"k":"send","r":1,"v":0,"p":0,"to":2147483648}`,                  // receiver overflows int32
		strings.Repeat(`{"k":"awake","r":1,"v":0}`+"\n", 64) + "not json", // trailing garbage
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, ev := range events {
			if ev.Kind > KindNbrs {
				t.Fatalf("accepted event with unknown kind %d", ev.Kind)
			}
		}
		// Accepted traces must round-trip through the canonical writer.
		var b strings.Builder
		fmt.Fprintf(&b, `{"k":"begin","n":%d}`+"\n", meta.N)
		for _, ev := range events {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, `{"k":"end","rounds":%d,"events":%d,"dropped":%d}`+"\n", meta.Rounds, meta.Events, meta.Dropped)
		meta2, events2, err := ReadJSONL(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parse of accepted trace failed: %v", err)
		}
		if meta2 != meta {
			t.Fatalf("meta did not round-trip: %+v vs %+v", meta, meta2)
		}
		if len(events2) != len(events) {
			t.Fatalf("event count did not round-trip: %d vs %d", len(events), len(events2))
		}
		for i := range events {
			if events[i] != events2[i] {
				t.Fatalf("event %d did not round-trip: %+v vs %+v", i, events[i], events2[i])
			}
		}
	})
}

// fuzzEvents decodes events from data. Each event is a head byte, whose
// low seven bits modulo 12 give the kind (10 and 11 are unknown kinds)
// and whose top bit keeps the previous event's round, then signed
// varints: the round unless kept, then the step, node, port, peer,
// phase, fragment, previous fragment and aux. Missing varints read 0.
func fuzzEvents(data []byte) []Event {
	next := func() int64 {
		v, k := binary.Varint(data)
		if k <= 0 {
			data = nil
			return 0
		}
		data = data[k:]
		return v
	}
	var events []Event
	var round int64
	for len(data) > 0 {
		head := data[0]
		data = data[1:]
		if head&0x80 == 0 {
			round = next()
		}
		ev := Event{Kind: Kind(head&0x7f) % 12, Round: round, Step: Step(next())}
		ev.Node, ev.Port, ev.Peer, ev.Phase = int32(next()), int32(next()), int32(next()), int32(next())
		ev.Frag, ev.Prev, ev.Aux = next(), next(), next()
		events = append(events, ev)
	}
	return events
}

// fuzzData encodes events the way fuzzEvents decodes them.
func fuzzData(events ...Event) []byte {
	var b []byte
	for i, ev := range events {
		if i > 0 && ev.Round == events[i-1].Round {
			b = append(b, byte(ev.Kind)|0x80)
		} else {
			b = binary.AppendVarint(append(b, byte(ev.Kind)), ev.Round)
		}
		for _, v := range []int64{int64(ev.Step), int64(ev.Node), int64(ev.Port), int64(ev.Peer), int64(ev.Phase), ev.Frag, ev.Prev, ev.Aux} {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// FuzzJSONLMatchesFmt pins the render to the fmt format it replaced, on
// arbitrary events: every kind, unknown kinds and steps, any field
// value, and rounds that repeat or jump. The events go to one JSONL a
// run of equal rounds at a time, as an Orderer releases them, to
// another in slices of cut events that span rounds (all in one slice
// when cut is 0), both under the event cap maxEvents and the byte
// limit maxBytes, and to WriteEventsJSONL. Every stream must equal
// fmtJSONL of the events shipped, and each render's Len its length,
// kept or not.
func FuzzJSONLMatchesFmt(f *testing.F) {
	var mixed []Event
	for k := KindPhase; k <= KindNbrs+1; k++ {
		mixed = append(mixed,
			Event{Kind: k, Round: 7, Node: int32(k), Port: 1, Peer: 2, Phase: 3, Frag: 4, Prev: 5, Aux: 6, Step: Steps[int(k)%len(Steps)]},
			Event{Kind: k, Round: 8 + int64(k)/4, Node: -1, Step: Step(200)})
	}
	extreme := []Event{
		{Kind: KindStep, Round: math.MinInt64, Node: math.MinInt32, Phase: math.MaxInt32, Aux: math.MaxInt64},
		{Kind: KindMerge, Round: math.MinInt64, Frag: math.MinInt64, Prev: math.MaxInt64},
		{Kind: KindDeliver, Round: math.MaxInt64, Node: math.MaxInt32, Port: math.MinInt32, Peer: -1},
	}
	f.Add([]byte{}, int64(math.MaxInt64), math.MaxInt, int64(0), uint8(0))
	f.Add(fuzzData(mixed...), int64(math.MaxInt64), math.MaxInt, int64(3), uint8(0))
	f.Add(fuzzData(mixed...), int64(5), math.MaxInt, int64(9), uint8(3))
	f.Add(fuzzData(mixed...), int64(math.MaxInt64), 300, int64(9), uint8(1))
	f.Add(fuzzData(extreme...), int64(-1), -1, int64(math.MinInt64), uint8(2))
	f.Add(fuzzData(extreme...), int64(2), math.MaxInt, int64(math.MaxInt64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, maxEvents int64, maxBytes int, rounds int64, cut uint8) {
		events := fuzzEvents(data)
		shipped := int64(len(events))
		if maxEvents < shipped {
			shipped = max(maxEvents, 0)
		}
		meta := Meta{N: len(data), Rounds: rounds, Events: int64(len(events))}
		cutMeta := Meta{N: meta.N, Rounds: rounds, Events: shipped, Dropped: meta.Events - shipped}
		want := fmtJSONL(cutMeta, events[:shipped])

		for _, ev := range events {
			if got, w := ev.String(), strings.TrimSuffix(fmtEvent(ev), "\n"); got != w {
				t.Fatalf("String(%+v) = %q, want %q", ev, got, w)
			}
		}
		var w bytes.Buffer
		if err := WriteEventsJSONL(&w, cutMeta, events[:shipped]); err != nil {
			t.Fatal(err)
		}
		if w.String() != want {
			t.Fatalf("WriteEventsJSONL differs from the fmt rendering:\n%s\nwant\n%s", w.String(), want)
		}

		byRound, sliced := NewJSONL(maxEvents, maxBytes), NewJSONL(maxEvents, maxBytes)
		byRound.Begin(meta.N)
		sliced.Begin(meta.N)
		for i := 0; i < len(events); {
			j := i + 1
			for j < len(events) && events[j].Round == events[i].Round {
				j++
			}
			byRound.Round(events[i:j])
			i = j
		}
		step := len(events)
		if cut > 0 {
			step = int(cut)
		}
		for i := 0; i < len(events); i += step {
			sliced.Round(events[i:min(i+step, len(events))])
		}
		for _, r := range []struct {
			name string
			j    *JSONL
		}{{"per round", byRound}, {"sliced", sliced}} {
			name, j := r.name, r.j
			j.End(meta)
			if j.Len() != len(want) {
				t.Fatalf("%s: Len %d, want %d", name, j.Len(), len(want))
			}
			got, chunks := j.Bytes(), j.Chunks()
			if len(want) > maxBytes {
				if got != nil || chunks != nil {
					t.Fatalf("%s: %d bytes past a %d-byte limit: Bytes %d bytes and %d chunks, want nil", name, len(want), maxBytes, len(got), len(chunks))
				}
				continue
			}
			if string(got) != want || string(bytes.Join(chunks, nil)) != want {
				t.Fatalf("%s: render differs from the fmt rendering:\n%s\nwant\n%s", name, got, want)
			}
		}
	})
}
