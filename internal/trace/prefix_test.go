package trace_test

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sleepmst/internal/trace"
	"sleepmst/internal/trace/tracetest"
)

// randomRun reports a random run to sink the way the simulator does:
// each busy round brings scheduler events stamped with it (and, now
// and then, a delayed copy lost in an unrun round since the last busy
// one), node events stamped at a later wake round, and then Passed;
// the run ends with copies lost past its last round and
// Passed(math.MaxInt64).
func randomRun(rng *rand.Rand, sink trace.Sink) {
	n := 1 + rng.Intn(60)
	sink.Begin(n)
	node := func() int32 { return int32(rng.Intn(n)) }
	msg := func(kind trace.Kind, round int64) trace.Event {
		return trace.Event{Kind: kind, Round: round, Node: node(), Port: rng.Int31n(4), Peer: node()}
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
			sink.Event(msg(trace.KindLost, passed+1+rng.Int63n(round-passed-1)))
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			switch rng.Intn(5) {
			case 0:
				sink.Event(trace.Event{Kind: trace.KindAwake, Round: round, Node: node()})
			case 1:
				sink.Event(msg(trace.KindSend, round))
			case 2:
				sink.Event(msg(trace.KindDeliver, round))
			case 3:
				sink.Event(msg(trace.KindLost, round))
			case 4:
				kinds := [...]trace.Kind{trace.KindPhase, trace.KindStep, trace.KindMerge, trace.KindSleep, trace.KindCrash, trace.KindNbrs}
				sink.Event(trace.Event{Kind: kinds[rng.Intn(len(kinds))], Round: ahead(round), Node: node(),
					Phase: 1 + rng.Int31n(5), Step: trace.Steps[rng.Intn(len(trace.Steps))], Frag: rng.Int63n(40), Aux: rng.Int63n(9)})
			}
		}
		sink.Passed(round)
		passed = round
	}
	for k := rng.Intn(4); k > 0; k-- {
		sink.Event(msg(trace.KindLost, passed+1+rng.Int63n(9)))
	}
	sink.Passed(math.MaxInt64)
}

// randomEvents reports random events to sink and passes them all at
// the end: rounds in [0, 2^roundBits) and scheduler-side nodes in [0,
// 2^nodeBits), or in [-2^bits, 2^bits) when negative is set, except
// round math.MinInt64, which no Sink may be sent. Node-side events
// use the run's own nodes, and every node ends with a Crash stamped
// at the lowest round the run can hold, below its earlier events.
func randomEvents(rng *rand.Rand, sink trace.Sink, roundBits, nodeBits int, negative bool) {
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
		return max(v, math.MinInt64+1)
	}
	lowest := int64(0)
	if negative {
		lowest = max(-(int64(1) << roundBits), math.MinInt64+1)
	}
	n := 1 + rng.Intn(6)
	sink.Begin(n)
	for i, ops := 0, 50+rng.Intn(400); i < ops; i++ {
		round := value(roundBits)
		node := int32(value(nodeBits))
		own := rng.Int31n(int32(n))
		msg := func(kind trace.Kind) trace.Event {
			return trace.Event{Kind: kind, Round: round, Node: node, Port: int32(rng.Intn(4)), Peer: int32(value(nodeBits))}
		}
		switch rng.Intn(10) {
		case 0:
			sink.Event(trace.Event{Kind: trace.KindAwake, Round: round, Node: node})
		case 1:
			sink.Event(msg(trace.KindSend))
		case 2:
			sink.Event(msg(trace.KindDeliver))
		case 3:
			sink.Event(msg(trace.KindLost))
		case 4:
			sink.Event(trace.Event{Kind: trace.KindSleep, Round: round, Node: own, Aux: value(roundBits)})
		case 5:
			sink.Event(trace.Event{Kind: trace.KindPhase, Round: round, Node: own, Phase: 1 + rng.Int31n(5), Frag: value(40)})
		case 6:
			sink.Event(trace.Event{Kind: trace.KindStep, Round: round, Node: own, Phase: 1 + rng.Int31n(5),
				Step: trace.Steps[rng.Intn(len(trace.Steps))], Aux: rng.Int63n(9)})
		case 7:
			sink.Event(trace.Event{Kind: trace.KindMerge, Round: round, Node: own, Frag: value(40), Prev: value(40)})
		case 8:
			sink.Event(trace.Event{Kind: trace.KindNbrs, Round: round, Node: own, Phase: 1 + rng.Int31n(5), Aux: int64(rng.Intn(5))})
		case 9:
			sink.Event(trace.Event{Kind: trace.KindAwake, Round: round, Node: own})
		}
	}
	for v := int32(0); v < int32(n); v++ {
		sink.Event(trace.Event{Kind: trace.KindCrash, Round: lowest, Node: v})
	}
	sink.Passed(math.MaxInt64)
}

// sizedRound returns size scheduler events of one round, arriving in
// canonical order, reversed, or shuffled. Their nodes, negative ones
// among them, and kinds repeat, so most (node, kind) groups hold
// several events, which Aux tells apart.
func sizedRound(rng *rand.Rand, size int, order string) []trace.Event {
	evs := make([]trace.Event, size)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindAwake + trace.Kind(rng.Intn(4)), Round: 5, Node: int32(rng.Intn(size/8+4)) - 2, Aux: int64(i)}
	}
	if order != "random" {
		slices.SortStableFunc(evs, func(a, b trace.Event) int {
			return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Kind, b.Kind))
		})
	}
	if order == "reversed" {
		slices.Reverse(evs)
	}
	return evs
}

// firstDiff returns the index of the first event where got and want
// differ, or -1 when they are equal.
func firstDiff(got, want []trace.Event) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// TestEventsMatchStableSort pins the recorder's order — the Orderer's
// round heap and its per-round insertion or radix sort — against the
// reference's stable comparison sort, on random events at capacities
// that cut the run and one that does not: crashes stamped below a
// node's earlier events, round 0, negative and extreme rounds and
// nodes, and nodes up to and past 2^20: every pass count from none to
// all five key bytes. Rounds of 0, 1, InsertionMax-1, InsertionMax,
// InsertionMax+1 and 2×InsertionMax events, arriving sorted, reversed
// and shuffled, pin both sorts and the threshold between them: only a
// round over it may take the radix path.
func TestEventsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{64, 512, 0} {
		for _, roundBits := range []int{0, 1, 8, 9, 16, 24, 32, 40, 41, 48, 56, 63} {
			for _, nodeBits := range []int{0, 1, 8, 16, 20, 24, 31} {
				for _, negative := range []bool{false, true} {
					var ref tracetest.Reference
					rec := trace.NewRecorder(capacity)
					randomEvents(rng, trace.Tee(rec, &ref), roundBits, nodeBits, negative)
					want := ref.Events()
					want = want[:min(len(want), cmp.Or(capacity, trace.DefaultCapacity))]
					if i := firstDiff(rec.Events(), want); i >= 0 {
						t.Fatalf("cap=%d roundBits=%d nodeBits=%d negative=%v: %d events, reference %d; first difference at %d",
							capacity, roundBits, nodeBits, negative, len(rec.Events()), len(want), i)
					}
				}
			}
		}
	}

	for _, size := range []int{0, 1, trace.InsertionMax - 1, trace.InsertionMax, trace.InsertionMax + 1, 2 * trace.InsertionMax} {
		for _, order := range []string{"sorted", "reversed", "random"} {
			round := sizedRound(rng, size, order)
			var ref tracetest.Reference
			rec := trace.NewRecorder(0)
			sink := trace.Tee(rec, &ref)
			sink.Begin(size/8 + 2)
			for _, ev := range round {
				sink.Event(ev)
			}
			sink.Passed(math.MaxInt64)
			want := ref.Events()
			if i := firstDiff(rec.Events(), want); i >= 0 {
				t.Fatalf("round of %d events, %s: recorder differs from the reference at %d", size, order, i)
			}
			got, radix := trace.SortCanonical(slices.Clone(round))
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("round of %d events, %s: sort differs from the reference at %d", size, order, i)
			}
			if radix != (size > trace.InsertionMax) {
				t.Fatalf("round of %d events, %s: radix path %v, want it only over %d events", size, order, radix, trace.InsertionMax)
			}
		}
	}
}

// TestOrdererMatchesEvents checks the orderer against the reference on
// random runs: it releases one round at a time, the released stream
// equals the reference's Events, its Meta the reference's, nothing
// stays pending, and a JSONL render of the released rounds equals the
// reference's render, whole or cut to its first events.
func TestOrdererMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 300; run++ {
		var got []trace.Event
		var rounds [][]trace.Event
		ord := trace.NewOrderer(func(events []trace.Event) {
			for i := 1; i < len(events); i++ {
				if events[i].Round != events[0].Round {
					t.Fatalf("run %d: one release holds rounds %d and %d", run, events[0].Round, events[i].Round)
				}
			}
			got = append(got, events...)
			rounds = append(rounds, slices.Clone(events))
		})
		var ref tracetest.Reference
		randomRun(rng, trace.Tee(&ref, ord))
		want := ref.Events()
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("run %d: released %d events, reference %d; first difference at %d", run, len(got), len(want), i)
		}
		if ord.Meta() != ref.Meta() {
			t.Fatalf("run %d: orderer meta %+v, reference meta %+v", run, ord.Meta(), ref.Meta())
		}
		if p := trace.PendingRounds(ord); p != 0 {
			t.Fatalf("run %d: %d rounds still pending after the run", run, p)
		}

		for _, cut := range []int64{math.MaxInt64, int64(rng.Intn(len(want) + 2))} {
			j := trace.NewJSONL(cut, math.MaxInt)
			j.Begin(ref.Meta().N)
			for _, r := range rounds {
				j.Round(r)
			}
			j.End(ord.Meta())
			if w := ref.JSONL(cut); j.Len() != len(w) || !bytes.Equal(j.Bytes(), w) {
				t.Fatalf("run %d, cut %d: JSONL render (%d bytes) differs from the reference's (%d bytes)", run, cut, j.Len(), len(w))
			}
		}
	}
}

// TestRecorderCapKeepsCanonicalPrefix pins the one meaning of a trace
// cap: a recorder of capacity C keeps the first C events of the run's
// canonical stream, Meta counts the rest as dropped, and its WriteJSONL
// bytes equal a JSONL render with event cap C.
func TestRecorderCapKeepsCanonicalPrefix(t *testing.T) {
	rec := trace.NewRecorder(64)
	rec.Begin(1)
	for round := int64(1); round <= 100; round++ {
		rec.Event(trace.Event{Kind: trace.KindAwake, Round: round})
	}
	rec.Passed(math.MaxInt64)
	if evs := rec.Events(); len(evs) != 64 || evs[0].Round != 1 || evs[63].Round != 64 {
		t.Fatalf("kept %d events, want rounds 1..64", len(evs))
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), `{"k":"end","rounds":100,"events":64,"dropped":36}`+"\n") {
		t.Errorf("end line does not count the rest as dropped:\n%s", buf.String())
	}

	for run := int64(0); run < 100; run++ {
		var ref tracetest.Reference
		randomRun(rand.New(rand.NewSource(run)), &ref)
		whole, all := ref.Meta(), ref.Events()
		for _, c := range []int{1, 2, len(all) / 2, len(all) - 1, len(all), len(all) + 1} {
			if c <= 0 {
				continue
			}
			rec := trace.NewRecorder(c)
			j := trace.NewJSONL(int64(c), math.MaxInt)
			ord := trace.NewOrderer(j.Round)
			j.Begin(whole.N)
			randomRun(rand.New(rand.NewSource(run)), trace.Tee(rec, ord))
			j.End(ord.Meta())
			// WriteJSONL first renders the recording's chunks as they
			// are; Events then joins them.
			var w bytes.Buffer
			if err := rec.WriteJSONL(&w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), j.Bytes()) {
				t.Fatalf("run %d, cap %d: WriteJSONL (%d bytes) differs from the JSONL render (%d bytes)", run, c, w.Len(), j.Len())
			}
			kept := min(c, len(all))
			if i := firstDiff(rec.Events(), all[:kept]); i >= 0 {
				t.Fatalf("run %d, cap %d: kept %d events, want the first %d; first difference at %d", run, c, len(rec.Events()), kept, i)
			}
			want := trace.Meta{N: whole.N, Rounds: whole.Rounds, Events: int64(kept), Dropped: whole.Events - int64(kept)}
			if rec.Meta() != want {
				t.Fatalf("run %d, cap %d: meta %+v, want %+v", run, c, rec.Meta(), want)
			}
			w.Reset()
			if err := rec.WriteJSONL(&w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), j.Bytes()) {
				t.Fatalf("run %d, cap %d: WriteJSONL after Events differs from the JSONL render", run, c)
			}
		}
	}
}

// TestJSONLSizeMatchesRender: a JSONL render that keeps its bytes
// writes what WriteEventsJSONL does, and one that keeps none counts
// their exact length, on random events (negative and extreme rounds
// and nodes, every kind) plus events of every step, StepNone, an
// unknown step and an unknown kind, under ordinary and extreme
// metadata.
func TestJSONLSizeMatchesRender(t *testing.T) {
	extra := []trace.Event{
		{Kind: trace.KindNbrs + 1, Round: 5, Node: 1},
		{Kind: trace.KindStep, Step: trace.StepNone},
		{Kind: trace.KindStep, Round: math.MinInt64, Node: math.MinInt32, Phase: math.MaxInt32, Step: trace.Step(200), Aux: math.MaxInt64},
	}
	for _, st := range trace.Steps {
		extra = append(extra, trace.Event{Kind: trace.KindStep, Round: -1, Node: 7, Phase: 2, Step: st, Aux: -9})
	}
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{0, 9, 31, 63} {
		for _, negative := range []bool{false, true} {
			var ref tracetest.Reference
			randomEvents(rng, &ref, bits, min(bits, 31), negative)
			events := append(ref.Events(), extra...)
			for _, meta := range []trace.Meta{ref.Meta(), {N: math.MaxInt32, Rounds: math.MinInt64, Dropped: math.MaxInt64}} {
				meta.Events = int64(len(events))
				var w bytes.Buffer
				if err := trace.WriteEventsJSONL(&w, meta, events); err != nil {
					t.Fatal(err)
				}
				for _, maxBytes := range []int{math.MaxInt, 0} {
					j := trace.NewJSONL(math.MaxInt64, maxBytes)
					j.Begin(meta.N)
					j.Round(events)
					j.End(meta)
					if j.Len() != w.Len() || (maxBytes > 0 && !bytes.Equal(j.Bytes(), w.Bytes())) {
						t.Fatalf("bits=%d negative=%v meta %+v, byte limit %d: render of %d bytes differs from WriteEventsJSONL's %d",
							bits, negative, meta, maxBytes, j.Len(), w.Len())
					}
				}
			}
		}
	}
}
