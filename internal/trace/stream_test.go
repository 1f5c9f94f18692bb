package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestJSONLStopsKeepingPastItsByteLimit: past the byte limit the render
// only counts, so Len still reports the whole stream and Bytes is nil.
func TestJSONLStopsKeepingPastItsByteLimit(t *testing.T) {
	events := make([]Event, 5000)
	for i := range events {
		events[i] = Event{Kind: KindAwake, Round: 7, Node: int32(i)}
	}
	meta := Meta{N: len(events), Rounds: 7, Events: int64(len(events))}
	var w bytes.Buffer
	if err := WriteEventsJSONL(&w, meta, events); err != nil {
		t.Fatal(err)
	}
	want := w.Len()
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
