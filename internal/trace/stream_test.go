package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomRun reports a random run to sink the way the simulator does:
// each busy round brings scheduler events stamped with it (and, now
// and then, a delayed copy lost in an unrun round since the last busy
// one), node events stamped at a later wake round, and then Passed;
// the run ends with copies lost past its last round and
// Passed(math.MaxInt64).
func randomRun(rng *rand.Rand, sink Sink) {
	n := 1 + rng.Intn(60)
	sink.Begin(n)
	node := func() int32 { return int32(rng.Intn(n)) }
	msg := func(kind Kind, round int64) Event {
		return Event{Kind: kind, Round: round, Node: node(), Port: rng.Int31n(4), Peer: node()}
	}
	ahead := func(round int64) int64 {
		if rng.Intn(4) == 0 {
			return round + 1 + rng.Int63n(50)
		}
		return round + 1
	}
	var passed int64
	for round := int64(1 + rng.Intn(3)); round < 200; round += 1 + rng.Int63n(4) {
		if passed+1 < round && rng.Intn(3) == 0 {
			sink.Event(msg(KindLost, passed+1+rng.Int63n(round-passed-1)))
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			switch rng.Intn(5) {
			case 0:
				sink.Event(Event{Kind: KindAwake, Round: round, Node: node()})
			case 1:
				sink.Event(msg(KindSend, round))
			case 2:
				sink.Event(msg(KindDeliver, round))
			case 3:
				sink.Event(msg(KindLost, round))
			case 4:
				kinds := [...]Kind{KindPhase, KindStep, KindMerge, KindSleep, KindCrash, KindNbrs}
				sink.Event(Event{Kind: kinds[rng.Intn(len(kinds))], Round: ahead(round), Node: node(),
					Phase: 1 + rng.Int31n(5), Step: Steps[rng.Intn(len(Steps))], Frag: rng.Int63n(40), Aux: rng.Int63n(9)})
			}
		}
		sink.Passed(round)
		passed = round
	}
	for k := rng.Intn(4); k > 0; k-- {
		sink.Event(msg(KindLost, passed+1+rng.Int63n(9)))
	}
	sink.Passed(math.MaxInt64)
}

// TestOrdererMatchesEvents checks the orderer against an unbounded
// recorder fed the same random runs: the released stream equals
// Events(), Meta() equals the recorder's, and a JSONL render of it
// equals AppendEventsJSONL, whole or cut to its first events.
func TestOrdererMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 300; run++ {
		var got []Event
		ord := NewOrderer(func(events []Event) {
			for i := 1; i < len(events); i++ {
				if events[i].Round != events[0].Round {
					t.Fatalf("run %d: one release holds rounds %d and %d", run, events[0].Round, events[i].Round)
				}
			}
			got = append(got, events...)
		})
		rec := NewRecorder(math.MaxInt32)
		randomRun(rng, Tee(rec, ord))
		want := rec.Events()
		if len(got) != len(want) {
			t.Fatalf("run %d: released %d events, recorder holds %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: event %d is %s, recorder has %s", run, i, got[i], want[i])
			}
		}
		if ord.Meta() != rec.Meta() {
			t.Fatalf("run %d: orderer meta %+v, recorder meta %+v", run, ord.Meta(), rec.Meta())
		}
		if len(ord.index) != 0 || len(ord.queue) != 0 {
			t.Fatalf("run %d: %d rounds still pending after the run", run, len(ord.queue))
		}

		limit := int64(rng.Intn(len(want) + 2))
		for _, cut := range []int64{math.MaxInt64, limit} {
			j := NewJSONL(cut, math.MaxInt)
			j.Begin(rec.N())
			for lo := 0; lo < len(want); {
				hi := lo + 1
				for hi < len(want) && want[hi].Round == want[lo].Round {
					hi++
				}
				j.Round(want[lo:hi])
				lo = hi
			}
			j.End(ord.Meta())
			meta, events := rec.Meta(), want
			if cut < int64(len(events)) {
				meta.Dropped, meta.Events, events = meta.Events-cut, cut, events[:cut]
			}
			if w := AppendEventsJSONL(nil, meta, events); j.Len() != len(w) || !bytes.Equal(j.Bytes(), w) {
				t.Fatalf("run %d, cut %d: JSONL render (%d bytes) differs from AppendEventsJSONL (%d bytes)", run, cut, j.Len(), len(w))
			}
		}
	}
}

// TestJSONLStopsKeepingPastItsByteLimit: past the byte limit the render
// only counts, so Len still reports the whole stream and Bytes is nil.
func TestJSONLStopsKeepingPastItsByteLimit(t *testing.T) {
	events := make([]Event, 5000)
	for i := range events {
		events[i] = Event{Kind: KindAwake, Round: 7, Node: int32(i)}
	}
	meta := Meta{N: len(events), Rounds: 7, Events: int64(len(events))}
	want := len(AppendEventsJSONL(nil, meta, events))
	j := NewJSONL(math.MaxInt64, 1000)
	j.Begin(meta.N)
	j.Round(events)
	j.End(meta)
	kept := 0
	for _, c := range j.chunks {
		kept += len(c)
	}
	if kept > 1000+2*maxLine {
		t.Errorf("kept %d bytes past a 1000-byte limit", kept)
	}
	if got := j.Bytes(); j.Len() != want || got != nil {
		t.Errorf("Len %d (want %d), Bytes %d bytes (want nil)", j.Len(), want, len(got))
	}
}

// TestOrdererRejectsLateEvents: an event stamped at or before a passed
// round breaks the Sink contract and panics, naming the event.
func TestOrdererRejectsLateEvents(t *testing.T) {
	ord := NewOrderer(func([]Event) {})
	ord.Begin(2)
	ord.Event(Event{Kind: KindAwake, Round: 3, Node: 1})
	ord.Passed(3)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, `"k":"awake","r":3`) {
			t.Errorf("panic %q does not name the late event", r)
		}
	}()
	ord.Event(Event{Kind: KindAwake, Round: 3, Node: 0})
}
