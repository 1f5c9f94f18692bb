package trace

import (
	"bytes"
	"fmt"
	"math"
)

// Sink receives a run's events while the run goes. sim.Run reports to
// the sink in Config.Trace: Begin once, then every event as it
// happens, and Passed after every busy round and once more, with
// math.MaxInt64, when the run ends. An *Orderer releases the events in
// canonical order round by round; a *Recorder keeps the first ones it
// releases; Tee feeds two sinks.
type Sink interface {
	// Begin starts a run on n nodes, before its first event.
	Begin(n int)
	// Event reports one event. A scheduler-side event carries the round
	// being run, or, for a delayed copy lost unrun, the round it was
	// due in; a node-side event carries the node's next wake round.
	Event(ev Event)
	// Passed reports that no later event is stamped at or before
	// round: the scheduler has run it, every node has parked for a
	// later one, and every delayed copy due by then is settled.
	Passed(round int64)
}

// Tee returns a Sink that reports every call to a, then to b.
func Tee(a, b Sink) Sink { return tee{a, b} }

type tee struct{ a, b Sink }

func (t tee) Begin(n int)        { t.a.Begin(n); t.b.Begin(n) }
func (t tee) Event(ev Event)     { t.a.Event(ev); t.b.Event(ev) }
func (t tee) Passed(round int64) { t.a.Passed(round); t.b.Passed(round) }

// Orderer is a Sink that puts a run's events into canonical order as
// the run goes: ascending (Round, Node, Kind), and events of one
// (Round, Node, Kind) in the order they were reported. Once a round is
// passed, the Orderer hands its events, sorted, to its release
// function, rounds in ascending order. It holds only the events not
// yet released: the current round's scheduler events and the node
// events stamped ahead at the nodes' wake rounds. The work per round is
// a stable sort of that round's events by (Node, Kind), never a pass
// over the nodes.
type Orderer struct {
	release func(events []Event)
	meta    Meta
	passed  int64

	// cur holds the scheduler events of curRound, the round being run,
	// in one buffer every round reuses.
	cur      []Event
	curRound int64

	// The other pending events — node events stamped ahead, and
	// scheduler events of a round other than curRound — share one
	// arena, each round's chained in arrival order, and a released
	// round's entries chain onto the free list. index maps a pending
	// round to its chain, and queue holds the pending rounds, curRound
	// included, smallest first. Released chains go on spare.
	arena    []pending
	freeHead int32
	chains   []chain
	spare    []int
	index    map[int64]int
	queue    roundHeap

	gather, scratch []Event // a released round's events, and sort scratch
}

// pending is one arena entry: an event and the next entry of its
// chain, or -1.
type pending struct {
	ev   Event
	next int32
}

// chain is the first and last arena entry of a pending round, -1 when
// it has none.
type chain struct{ head, tail int32 }

// NewOrderer returns an Orderer that calls release with the events of
// each passed round, in canonical order. The slice is reused once
// release returns.
func NewOrderer(release func(events []Event)) *Orderer {
	return &Orderer{release: release, index: map[int64]int{}, passed: math.MinInt64, freeHead: -1}
}

// Begin resets the orderer for a run on n nodes.
func (o *Orderer) Begin(n int) {
	clear(o.index)
	o.arena, o.freeHead, o.chains, o.spare, o.queue = o.arena[:0], -1, o.chains[:0], o.spare[:0], o.queue[:0]
	o.meta, o.passed, o.cur = Meta{N: n}, math.MinInt64, o.cur[:0]
}

// Reserve sizes the current round's buffer to hold events events: the
// round's scheduler events, to which Passed appends the round's node
// events to sort them. A run whose rounds stay within that never
// regrows it by copying; Begin keeps the buffer. A larger round still
// grows it.
func (o *Orderer) Reserve(events int) {
	if cap(o.cur) < events {
		o.cur = make([]Event, 0, events)
	}
}

// Event queues ev for the release of its round. An event stamped at or
// before a passed round breaks the Sink contract and panics.
func (o *Orderer) Event(ev Event) {
	if ev.Round <= o.passed {
		panic(fmt.Sprintf("trace: %s reported after round %d was passed", ev, o.passed))
	}
	if ev.Kind >= KindAwake && ev.Kind <= KindLost {
		if len(o.cur) == 0 {
			o.chainOf(ev.Round) // queue the round
			o.curRound = ev.Round
		}
		if ev.Round == o.curRound {
			o.cur = append(o.cur, ev)
			return
		}
	}
	i := o.freeHead
	if i >= 0 {
		o.freeHead = o.arena[i].next
		o.arena[i] = pending{ev, -1}
	} else {
		i = int32(len(o.arena))
		o.arena = append(o.arena, pending{ev, -1})
	}
	c := &o.chains[o.chainOf(ev.Round)]
	if c.head < 0 {
		c.head = i
	} else {
		o.arena[c.tail].next = i
	}
	c.tail = i
}

// chainOf returns the chain of a pending round, opening one if needed.
func (o *Orderer) chainOf(round int64) int {
	if c, ok := o.index[round]; ok {
		return c
	}
	var c int
	if k := len(o.spare) - 1; k >= 0 {
		c, o.spare = o.spare[k], o.spare[:k]
		o.chains[c] = chain{-1, -1}
	} else {
		c = len(o.chains)
		o.chains = append(o.chains, chain{-1, -1})
	}
	o.index[round] = c
	o.queue.push(round)
	return c
}

// Passed releases every pending round at or before round.
func (o *Orderer) Passed(round int64) {
	for len(o.queue) > 0 && o.queue[0] <= round {
		r := o.queue.pop()
		// The kinds of the cur events and the chained ones differ, so
		// their arrival order relative to each other never matters.
		inCur := len(o.cur) > 0 && o.curRound == r
		evs := o.gather[:0]
		if inCur {
			evs = o.cur
		}
		k := o.index[r]
		delete(o.index, r)
		o.spare = append(o.spare, k)
		c := o.chains[k]
		for i := c.head; i >= 0; i = o.arena[i].next {
			evs = append(evs, o.arena[i].ev)
		}
		if c.head >= 0 {
			o.arena[c.tail].next, o.freeHead = o.freeHead, c.head
		}
		if inCur {
			o.cur = evs[:0]
		} else {
			o.gather = evs[:0]
		}
		evs = sortCanonical(evs, &o.scratch)
		for i := range evs {
			if evs[i].Kind == KindAwake {
				o.meta.Rounds = max(o.meta.Rounds, r)
				break
			}
		}
		o.meta.Events += int64(len(evs))
		o.release(evs)
	}
	o.passed = max(o.passed, round)
}

// Meta returns the header of the events released so far: the node
// count, the largest awake round, the event count, and no drops.
func (o *Orderer) Meta() Meta { return o.meta }

// sortKey maps ev to an unsigned key in (Node, Kind) order: Node, its
// sign bit flipped so negative nodes sort first, above Kind's byte.
func sortKey(ev *Event) uint64 {
	return uint64(uint32(ev.Node)^1<<31)<<8 | uint64(ev.Kind)
}

// insertionMax is the largest round sortCanonical sorts by insertion.
// Half the events of a service-sized run (n = 16 to 48) sit in rounds
// this small, where one insertion pass over nearly sorted events costs
// less than a radix pass's 256 counters.
const insertionMax = 64

// sortCanonical orders one round's events stably by (Node, Kind) and
// returns the result, which is evs or held in *scratch. A round of at
// most insertionMax events is sorted in place by insertion. A larger
// one is sorted by an LSD radix sort, with one stable counting pass for
// each key byte in which the keys differ, so a round of a 48-node run
// sorts in at most two passes, and a round of one kind in one; it grows
// *scratch to the round's length.
func sortCanonical(evs []Event, scratch *[]Event) []Event {
	if len(evs) <= insertionMax {
		for i := 1; i < len(evs); i++ {
			ev := evs[i]
			k, j := sortKey(&ev), i
			for ; j > 0 && sortKey(&evs[j-1]) > k; j-- {
				evs[j] = evs[j-1]
			}
			evs[j] = ev
		}
		return evs
	}
	every, some := ^uint64(0), uint64(0) // the bits set in every key, in some key
	for i := range evs {
		k := sortKey(&evs[i])
		every, some = every&k, some|k
	}
	if cap(*scratch) < len(evs) {
		*scratch = make([]Event, len(evs))
	}
	src, dst := evs, (*scratch)[:len(evs)]
	for differ, shift := every^some, uint(0); differ>>shift != 0; shift += 8 {
		if byte(differ>>shift) != 0 {
			radixPass(dst, src, shift)
			src, dst = dst, src
		}
	}
	return src
}

// radixPass stably scatters src into dst by the key byte at shift.
func radixPass(dst, src []Event, shift uint) {
	var next [256]int
	for i := range src {
		next[byte(sortKey(&src[i])>>shift)]++
	}
	pos := 0
	for d, c := range next {
		next[d] = pos
		pos += c
	}
	for i := range src {
		d := byte(sortKey(&src[i]) >> shift)
		dst[next[d]] = src[i]
		next[d]++
	}
}

// roundHeap is a min-heap of pending rounds.
type roundHeap []int64

func (h *roundHeap) push(r int64) {
	*h = append(*h, r)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *roundHeap) pop() int64 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s[l] < s[least] {
			least = l
		}
		if r < len(s) && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// jsonlChunk is the size of one chunk of a JSONL render.
const jsonlChunk = 32 << 10

// JSONL renders the canonical JSONL stream of a run round by round, as
// an Orderer releases it, into chunks that are filled once and never
// regrown: Chunks hands them out as they are, and Bytes joins them. It
// formats a round's digits once for the run of lines in that round. It
// renders at most a given number of events, the first ones in
// canonical order, and its end line counts the rest as dropped; beyond
// a given size it stops keeping bytes and only counts them, so a
// caller can refuse an oversized stream without holding it.
type JSONL struct {
	maxEvents int64
	maxBytes  int
	chunks    [][]byte
	size      int
	shipped   int64
	round     roundText
}

// NewJSONL returns a render of at most maxEvents events that keeps at
// most maxBytes bytes.
func NewJSONL(maxEvents int64, maxBytes int) *JSONL {
	return &JSONL{maxEvents: maxEvents, maxBytes: maxBytes}
}

// Begin renders the begin line of a run on n nodes.
func (j *JSONL) Begin(n int) {
	j.chunks, j.size, j.shipped = j.chunks[:0], 0, 0
	j.write(appendBegin(j.line(), Meta{N: n}))
}

// Round renders events, in canonical order, up to the event limit:
// one round's, as an Orderer releases them, or several rounds'.
func (j *JSONL) Round(events []Event) {
	if room := j.maxEvents - j.shipped; int64(len(events)) > room {
		events = events[:max(room, 0)]
	}
	j.shipped += int64(len(events))
	for i := range events {
		if j.size > j.maxBytes {
			j.size += lineSize(&events[i])
			continue
		}
		j.write(appendEvent(j.line(), &events[i], &j.round))
	}
}

// End renders the end line for the run described by meta: the events
// rendered, and as dropped every other event of the run.
func (j *JSONL) End(meta Meta) {
	meta.Dropped += meta.Events - j.shipped
	meta.Events = j.shipped
	j.write(appendEnd(j.line(), meta))
}

// line returns the current chunk, or a fresh one when the current one
// cannot hold another line.
func (j *JSONL) line() []byte {
	if k := len(j.chunks) - 1; k >= 0 && cap(j.chunks[k])-len(j.chunks[k]) >= maxLine {
		return j.chunks[k]
	}
	j.chunks = append(j.chunks, make([]byte, 0, jsonlChunk))
	return j.chunks[len(j.chunks)-1]
}

// write stores the current chunk after line() and an append grew it.
func (j *JSONL) write(chunk []byte) {
	k := len(j.chunks) - 1
	j.size += len(chunk) - len(j.chunks[k])
	j.chunks[k] = chunk
}

// Len returns the stream's size in bytes, kept or not.
func (j *JSONL) Len() int { return j.size }

// Chunks returns the stream as the chunks it was rendered into, in
// order, or nil when it outgrew the byte limit. They are the render's
// own and stay valid until the next Begin.
func (j *JSONL) Chunks() [][]byte {
	if j.size > j.maxBytes {
		return nil
	}
	return j.chunks[:len(j.chunks):len(j.chunks)]
}

// Bytes returns the stream joined into one slice, or nil when it
// outgrew the byte limit.
func (j *JSONL) Bytes() []byte {
	if c := j.Chunks(); c != nil {
		return bytes.Join(c, nil)
	}
	return nil
}
