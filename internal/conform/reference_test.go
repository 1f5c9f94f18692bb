package conform

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sleepmst/internal/trace"
)

// mapCausality is the map-based causality check the per-round walk
// replaced, kept as the reference the walk must agree with.
func mapCausality(events []trace.Event, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckCausality, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped from the trace", meta.Dropped))
	}
	type sendKey struct {
		round    int64
		from, to int32
	}
	sendRounds := map[pairKey][]int64{}
	sendCount := map[sendKey]int64{}
	var delivers []trace.Event
	var deliverIdx []int
	for i, ev := range events {
		switch ev.Kind {
		case trace.KindSend:
			sendRounds[pairKey{ev.Node, ev.Peer}] = append(sendRounds[pairKey{ev.Node, ev.Peer}], ev.Round)
			sendCount[sendKey{ev.Round, ev.Node, ev.Peer}]++
		case trace.KindDeliver:
			delivers = append(delivers, ev)
			deliverIdx = append(deliverIdx, i)
		}
	}
	for _, rounds := range sendRounds {
		sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	}
	if info.Relaxed {
		for di, ev := range delivers {
			rounds := sendRounds[pairKey{ev.Peer, ev.Node}]
			i := sort.Search(len(rounds), func(i int) bool { return rounds[i] > ev.Round })
			if i == 0 {
				c.Violations++
				if c.Detail == "" {
					c.Detail = fmt.Sprintf("event %d: deliver %d->%d at round %d precedes every send",
						deliverIdx[di], ev.Peer, ev.Node, ev.Round)
				}
			}
		}
	} else {
		deliverCount := map[sendKey]int64{}
		for _, ev := range delivers {
			deliverCount[sendKey{ev.Round, ev.Peer, ev.Node}]++
		}
		var bad []sendKey
		for key, got := range deliverCount {
			if got > sendCount[key] {
				bad = append(bad, key)
			}
		}
		sort.Slice(bad, func(i, j int) bool {
			a, b := bad[i], bad[j]
			if a.round != b.round {
				return a.round < b.round
			}
			if a.from != b.from {
				return a.from < b.from
			}
			return a.to < b.to
		})
		for _, key := range bad {
			got := deliverCount[key]
			c.Violations += got - sendCount[key]
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("round %d: %d deliveries %d->%d but %d sends", key.round, got, key.from, key.to, sendCount[key])
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// mapDeliverAwake is the map-based deliver-awake check the per-round
// walk replaced, kept as the reference the walk must agree with.
func mapDeliverAwake(events []trace.Event, meta trace.Meta) Check {
	c := Check{Name: CheckDeliverAwake, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped from the trace", meta.Dropped))
	}
	type awakeKey struct {
		round int64
		node  int32
	}
	awakeAt := map[awakeKey]bool{}
	for _, ev := range events {
		if ev.Kind == trace.KindAwake {
			awakeAt[awakeKey{ev.Round, ev.Node}] = true
		}
	}
	for _, ev := range events {
		if ev.Kind == trace.KindDeliver && !awakeAt[awakeKey{ev.Round, ev.Node}] {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d received from %d in round %d while asleep", ev.Node, ev.Peer, ev.Round)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// referenceVerdict is CheckTrace with causality and deliver-awake
// taken from the map-based references.
func referenceVerdict(meta trace.Meta, events []trace.Event, info RunInfo) *Verdict {
	v := CheckTrace(meta, events, info)
	if v.Checks[0].Status == StatusFail {
		return v // not well-formed: every other check is skipped
	}
	ref := &Verdict{Schema: v.Schema, Algo: v.Algo, N: v.N, Seed: v.Seed, Relaxed: v.Relaxed, Pass: true}
	for _, c := range v.Checks {
		switch c.Name {
		case CheckCausality:
			c = mapCausality(events, meta, info)
		case CheckDeliverAwake:
			c = mapDeliverAwake(events, meta)
		}
		ref.Append(c)
	}
	return ref
}

// assertMatchesReference requires CheckTrace's verdict JSON to equal
// the reference verdict's and the batch checker's, strict and Relaxed.
func assertMatchesReference(t testing.TB, name string, meta trace.Meta, events []trace.Event) {
	t.Helper()
	for _, relaxed := range []bool{false, true} {
		info := RunInfo{Algorithm: AlgoDeterministic, Seed: 3, Relaxed: relaxed}
		var got, want, batch bytes.Buffer
		if err := CheckTrace(meta, events, info).WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceVerdict(meta, events, info).WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if err := batchCheckTrace(meta, events, info).WriteJSON(&batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s (relaxed=%v): verdict differs from the map-based reference\ngot:\n%s\nwant:\n%s",
				name, relaxed, got.String(), want.String())
		}
		if !bytes.Equal(got.Bytes(), batch.Bytes()) {
			t.Fatalf("%s (relaxed=%v): verdict differs from the batch checker\ngot:\n%s\nwant:\n%s",
				name, relaxed, got.String(), batch.String())
		}
	}
}

// readCorpusFile decodes a `go test fuzz v1` file holding one []byte.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok {
		t.Fatalf("%s: value is not a []byte", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// TestChecksMatchReferenceOnCommittedTraces replays the committed
// golden traces and the FuzzReadJSONL corpus through both checkers.
func TestChecksMatchReferenceOnCommittedTraces(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "fuzz", "FuzzReadJSONL", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 || len(corpus) == 0 {
		t.Fatalf("found %d golden traces and %d corpus files", len(golden), len(corpus))
	}
	parsed := 0
	for _, path := range append(golden, corpus...) {
		var data []byte
		if strings.HasSuffix(path, ".jsonl") {
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		} else {
			data = readCorpusFile(t, path)
		}
		meta, events, err := trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			continue // the reader rejects it; there is nothing to check
		}
		parsed++
		assertMatchesReference(t, path, meta, events)
	}
	if parsed <= len(golden) {
		t.Errorf("only %d of %d committed traces parsed", parsed, len(golden)+len(corpus))
	}
}

// randomTrace builds a small clean-model-shaped trace whose events
// inside each round are shuffled: awake nodes, sends, deliveries that
// match, duplicate, lag or lack a send, deliveries to sleeping nodes,
// and phase, merge, step, nbrs and crash events over three fragments
// and three phases.
func randomTrace(rng *rand.Rand) (trace.Meta, []trace.Event) {
	n := 1 + rng.Intn(5)
	var events []trace.Event
	var earlier []trace.Event // sends of past rounds, for late deliveries
	round := int64(rng.Intn(2))
	for rounds := 1 + rng.Intn(8); rounds > 0; rounds-- {
		var evs []trace.Event
		for v := 0; v < n; v++ {
			if rng.Intn(3) > 0 {
				evs = append(evs, trace.Event{Kind: trace.KindAwake, Round: round, Node: int32(v)})
			}
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			from, to := int32(rng.Intn(n)), int32(rng.Intn(n))
			send := trace.Event{Kind: trace.KindSend, Round: round, Node: from, Port: int32(rng.Intn(3)), Peer: to}
			evs = append(evs, send)
			earlier = append(earlier, send)
			for copies := rng.Intn(4) - 1; copies > 0; copies-- { // 0, 1 or 2 deliveries
				evs = append(evs, trace.Event{Kind: trace.KindDeliver, Round: round, Node: to, Port: send.Port, Peer: from})
			}
		}
		if rng.Intn(3) == 0 { // a delivery with no send this round
			evs = append(evs, trace.Event{Kind: trace.KindDeliver, Round: round, Node: int32(rng.Intn(n)), Peer: int32(rng.Intn(n))})
		}
		if len(earlier) > 0 && rng.Intn(3) == 0 { // a late copy of an earlier send
			s := earlier[rng.Intn(len(earlier))]
			evs = append(evs, trace.Event{Kind: trace.KindDeliver, Round: round, Node: s.Peer, Port: s.Port, Peer: s.Node})
		}
		for k := rng.Intn(n + 1); k > 0; k-- { // node-side events over few fragments and phases
			v, frag, phase := int32(rng.Intn(n)), int64(rng.Intn(3)), 1+int32(rng.Intn(3))
			switch rng.Intn(6) {
			case 0, 1:
				evs = append(evs, trace.Event{Kind: trace.KindPhase, Round: round, Node: v, Phase: phase, Frag: frag})
			case 2:
				evs = append(evs, trace.Event{Kind: trace.KindMerge, Round: round, Node: v, Frag: frag, Prev: int64(rng.Intn(3))})
			case 3:
				evs = append(evs, trace.Event{Kind: trace.KindStep, Round: round, Node: v, Phase: phase, Step: trace.StepFindMOE, Aux: rng.Int63n(3)})
			case 4:
				evs = append(evs, trace.Event{Kind: trace.KindNbrs, Round: round, Node: v, Phase: phase, Aux: rng.Int63n(6)})
			case 5:
				evs = append(evs, trace.Event{Kind: trace.KindCrash, Round: round, Node: v})
			}
		}
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		events = append(events, evs...)
		round += 1 + rng.Int63n(3)
	}
	meta := trace.Meta{N: n, Rounds: round, Events: int64(len(events))}
	if rng.Intn(10) == 0 {
		meta.Dropped = 1
	}
	return meta, events
}

// TestChecksMatchReferenceOnRandomTraces compares both checkers on
// randomized traces with arbitrary order inside each round.
func TestChecksMatchReferenceOnRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	failing := 0
	for i := 0; i < 3000; i++ {
		meta, events := randomTrace(rng)
		assertMatchesReference(t, fmt.Sprintf("random trace %d", i), meta, events)
		if !CheckTrace(meta, events, RunInfo{Algorithm: AlgoDeterministic}).Pass {
			failing++
		}
	}
	if failing == 0 {
		t.Error("no random trace failed a check; the comparison never saw a violation")
	}
}

// fuzzKinds weights the kinds the two checks read.
var fuzzKinds = [...]trace.Kind{
	trace.KindAwake, trace.KindAwake, trace.KindSend, trace.KindSend, trace.KindDeliver, trace.KindDeliver,
	trace.KindLost, trace.KindPhase, trace.KindStep, trace.KindMerge, trace.KindCrash, trace.KindNbrs, trace.KindSleep,
}

// decodeTrace turns fuzz input into a trace: the first byte picks the
// node count and whether events were dropped, then every four bytes
// are one event — kind, round step, node, peer. A round step of 255
// goes back one round, so out-of-order streams reach the checker too.
func decodeTrace(data []byte) (trace.Meta, []trace.Event) {
	if len(data) == 0 {
		return trace.Meta{N: 1}, nil
	}
	n := 1 + int(data[0]%6)
	var round int64
	var events []trace.Event
	for b := data[1:]; len(b) >= 4; b = b[4:] {
		if b[1] == 255 {
			round--
		} else {
			round += int64(b[1] % 3)
		}
		events = append(events, trace.Event{
			Kind:  fuzzKinds[int(b[0])%len(fuzzKinds)],
			Round: round,
			Node:  int32(int(b[2]) % n),
			Port:  int32(b[0] >> 6),
			Peer:  int32(int(b[3]) % n),
			Phase: 1 + int32(b[3]>>6),
			Step:  trace.StepFindMOE,
			Frag:  int64(b[2] >> 4),
			Prev:  int64(b[3] >> 4),
			Aux:   int64(b[1] >> 5),
		})
	}
	return trace.Meta{N: n, Rounds: round, Events: int64(len(events)), Dropped: int64(data[0] >> 7)}, events
}

// FuzzCheckTraceMatchesReference runs the reference comparison on
// fuzz-decoded traces.
func FuzzCheckTraceMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 2, 0, 0, 1, 4, 0, 1, 0})
	f.Add([]byte{4, 0, 0, 1, 0, 2, 0, 1, 0, 4, 1, 0, 1, 4, 1, 0, 1, 0, 255, 2, 2})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 1+4*(1+rng.Intn(40)))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events := decodeTrace(data)
		assertMatchesReference(t, "fuzz trace", meta, events)
	})
}
