package trace

import (
	"bytes"
	"strings"
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

// record fills a recorder with recordEvents.
func record() *Recorder {
	r := NewRecorder(0)
	r.Begin(2)
	for _, ev := range recordEvents {
		r.Event(ev)
	}
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
	if r.Rounds() != 3 {
		t.Errorf("Rounds() = %d, want 3", r.Rounds())
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", r.Dropped())
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

func TestRecorderOverflowDropsOldest(t *testing.T) {
	r := NewRecorder(128) // schedCap and nodeCap both floor at 64
	r.Begin(1)
	for round := int64(1); round <= 100; round++ {
		r.Event(Event{Kind: KindAwake, Round: round})
	}
	if r.Dropped() != 36 {
		t.Fatalf("Dropped() = %d, want 36", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("kept %d events, want 64", len(evs))
	}
	if evs[0].Round != 37 || evs[len(evs)-1].Round != 100 {
		t.Errorf("kept rounds %d..%d, want 37..100 (oldest evicted first)",
			evs[0].Round, evs[len(evs)-1].Round)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped":36`) {
		t.Errorf("end line missing drop count:\n%s", buf.String())
	}
}

// TestStreamKeepsNewest: a stream with a limit of L events keeps the
// newest min(pushed, L) events, oldest first, counts the rest as
// dropped, and never allocates more than L events of storage, for
// limits on and off the chunk boundaries and pushes that wrap the ring
// several times.
func TestStreamKeepsNewest(t *testing.T) {
	for _, limit := range []int{64, 65, 100, 1024, 3000} {
		for _, pushed := range []int{0, 1, limit - 1, limit, limit + 1, 2*limit + 17, 5 * limit} {
			var s stream
			for i := 0; i < pushed; i++ {
				s.push(limit, Event{Round: int64(i)})
			}
			keep := min(pushed, limit)
			got := s.appendTo([]Event{{Round: -1}})
			if len(got) != 1+keep || s.n != keep || s.dropped != int64(pushed-keep) {
				t.Fatalf("limit %d, %d pushed: gathered %d, n %d, dropped %d; want %d live, %d dropped",
					limit, pushed, len(got)-1, s.n, s.dropped, keep, pushed-keep)
			}
			for i, ev := range got[1:] {
				if want := int64(pushed - keep + i); ev.Round != want {
					t.Fatalf("limit %d, %d pushed: event %d is round %d, want %d", limit, pushed, i, ev.Round, want)
				}
			}
			storage := 0
			for _, c := range s.chunks {
				if cap(c) > maxChunk {
					t.Errorf("limit %d: a chunk of %d events, over %d", limit, cap(c), maxChunk)
				}
				storage += cap(c)
			}
			if storage > limit || storage < keep {
				t.Errorf("limit %d, %d pushed: %d events of storage", limit, pushed, storage)
			}
		}
	}
}

func TestRecorderBeginResets(t *testing.T) {
	r := record()
	r.Begin(2)
	if r.Len() != 0 || r.Dropped() != 0 || r.Rounds() != 0 {
		t.Errorf("Begin did not reset: len=%d dropped=%d rounds=%d", r.Len(), r.Dropped(), r.Rounds())
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
