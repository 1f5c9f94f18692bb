package trace

import (
	"bytes"
	"math"
	"testing"
)

// recordEvents is a tiny synthetic run in report order: two nodes,
// three rounds, one phase, one merge, one lost message, one crash.
var recordEvents = []Event{
	{Kind: KindPhase, Round: 1, Node: 0, Phase: 1, Frag: 10},
	{Kind: KindPhase, Round: 1, Node: 1, Phase: 1, Frag: 11},
	{Kind: KindAwake, Round: 1, Node: 0},
	{Kind: KindAwake, Round: 1, Node: 1},
	{Kind: KindSend, Round: 1, Node: 0, Port: 0, Peer: 1},
	{Kind: KindDeliver, Round: 1, Node: 1, Port: 0, Peer: 0},
	{Kind: KindSleep, Round: 3, Node: 1, Aux: 1},
	{Kind: KindAwake, Round: 2, Node: 0},
	{Kind: KindSend, Round: 2, Node: 0, Port: 0, Peer: 1},
	{Kind: KindLost, Round: 2, Node: 0, Port: 0, Peer: 1},
	{Kind: KindCrash, Round: 3, Node: 1},
	{Kind: KindAwake, Round: 3, Node: 0},
	{Kind: KindStep, Round: 4, Node: 0, Phase: 1, Step: StepFindMOE, Aux: 3},
	{Kind: KindMerge, Round: 4, Node: 0, Frag: 11, Prev: 10},
}

// record fills a recorder with recordEvents and ends the run.
func record() *Recorder {
	r := NewRecorder(0)
	r.Begin(2)
	for _, ev := range recordEvents {
		r.Event(ev)
	}
	r.Passed(math.MaxInt64)
	return r
}

func TestRecorderCanonicalOrder(t *testing.T) {
	r := record()
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Round > b.Round {
			t.Fatalf("events out of round order at %d: %+v then %+v", i, a, b)
		}
		if a.Round == b.Round && a.Node > b.Node {
			t.Fatalf("events out of node order at %d: %+v then %+v", i, a, b)
		}
		if a.Round == b.Round && a.Node == b.Node && a.Kind > b.Kind {
			t.Fatalf("events out of kind order at %d: %+v then %+v", i, a, b)
		}
	}
	if m := r.Meta(); m != (Meta{N: 2, Rounds: 3, Events: int64(len(recordEvents))}) {
		t.Errorf("Meta() = %+v, want n=2, rounds=3, all %d events, none dropped", m, len(recordEvents))
	}
}

func TestRecorderJSONLRoundTrip(t *testing.T) {
	r := record()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	meta, evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.N != 2 || meta.Rounds != 3 || meta.Dropped != 0 {
		t.Errorf("meta = %+v", meta)
	}
	want := r.Events()
	if len(evs) != len(want) {
		t.Fatalf("round-trip kept %d of %d events", len(evs), len(want))
	}
	for i := range evs {
		if evs[i] != want[i] {
			t.Errorf("event %d: round-trip %+v != recorded %+v", i, evs[i], want[i])
		}
	}
}

func TestRecorderWriteIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := record().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two identical recordings serialized differently:\n%s\n--\n%s", a.String(), b.String())
	}
}

func TestRecorderBeginResets(t *testing.T) {
	r := record()
	r.Begin(2)
	if m := r.Meta(); m != (Meta{N: 2}) || len(r.Events()) != 0 {
		t.Errorf("Begin did not reset: meta %+v, %d events", m, len(r.Events()))
	}
}

func TestStepNamesRoundTrip(t *testing.T) {
	for _, st := range Steps {
		got, err := ParseStep(st.String())
		if err != nil || got != st {
			t.Errorf("ParseStep(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseStep("bogus"); err == nil {
		t.Error("ParseStep accepted an unknown step name")
	}
}
