// Package tracetest holds the test oracle of the trace package's
// canonical order: a Sink that keeps every event of a run and sorts
// them once with a comparison sort, sharing no code with the
// per-round radix sort of trace.Orderer and trace.Recorder.
package tracetest

import (
	"bytes"
	"sort"

	"sleepmst/internal/trace"
)

// Reference is a trace.Sink that keeps every reported event in arrival
// order. Its Events define the canonical order that trace.Orderer,
// trace.Recorder and trace.JSONL must reproduce. The zero value is
// ready to use.
type Reference struct {
	n      int
	events []trace.Event
	sorted bool // events is in canonical order
}

// Begin starts a run on n nodes, dropping the previous one.
func (r *Reference) Begin(n int) { r.n, r.events, r.sorted = n, nil, false }

// Event keeps ev.
func (r *Reference) Event(ev trace.Event) {
	r.events = append(r.events, ev)
	r.sorted = false
}

// Passed does nothing: the reference orders the run once, in Events.
func (r *Reference) Passed(int64) {}

// Events returns every reported event, sorted stably by (Round, Node,
// Kind). The slice is the reference's own. After a later Event the
// next call sorts it again, which keeps events of one (Round, Node,
// Kind) in arrival order: the sort is stable, and later events come
// after earlier ones.
func (r *Reference) Events() []trace.Event {
	if !r.sorted {
		evs := r.events
		sort.SliceStable(evs, func(i, j int) bool {
			a, b := &evs[i], &evs[j]
			if a.Round != b.Round {
				return a.Round < b.Round
			}
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			return a.Kind < b.Kind
		})
		r.sorted = true
	}
	return r.events
}

// Meta returns the header of the whole run: the node count, the
// largest awake round (0 if none is positive), every event, and no
// drops.
func (r *Reference) Meta() trace.Meta {
	m := trace.Meta{N: r.n, Events: int64(len(r.events))}
	for _, ev := range r.events {
		if ev.Kind == trace.KindAwake {
			m.Rounds = max(m.Rounds, ev.Round)
		}
	}
	return m
}

// JSONL renders the run's first maxEvents events in canonical order,
// with an end line that counts the rest as dropped.
func (r *Reference) JSONL(maxEvents int64) []byte {
	meta, events := r.Meta(), r.Events()
	if maxEvents < meta.Events {
		meta.Events, meta.Dropped, events = maxEvents, meta.Events-maxEvents, events[:maxEvents]
	}
	var b bytes.Buffer
	trace.WriteEventsJSONL(&b, meta, events) // a bytes.Buffer write never fails
	return b.Bytes()
}
