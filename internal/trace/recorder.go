package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// Kind enumerates the structured trace event types. The numeric order
// doubles as the canonical sort rank for events sharing a (round,
// node) coordinate, so it is part of the JSONL stream's determinism
// contract: do not reorder existing values.
type Kind uint8

// The event taxonomy. Scheduler-side events (KindAwake, KindSend,
// KindDeliver, KindLost) are emitted by the simulator's scheduler;
// node-side events (KindSleep, KindCrash, KindPhase, KindStep,
// KindMerge, KindNbrs) land in per-node streams written either by the
// node's program or by the scheduler while that node is parked.
const (
	// KindPhase marks a node entering an algorithm phase.
	KindPhase Kind = iota
	// KindStep reports the awake rounds a node spent in one phase step.
	KindStep
	// KindMerge reports a node changing fragments in Merging-Fragments.
	KindMerge
	// KindSleep reports a real sleep gap: the node skipped at least one
	// round between its previous awake round and this wake round.
	KindSleep
	// KindAwake reports a node being awake (and charged) in a round.
	KindAwake
	// KindSend reports one staged message at the start of a round.
	KindSend
	// KindDeliver reports a message reaching an awake receiver.
	KindDeliver
	// KindLost reports a message that reached no one (sleeping or
	// crashed receiver, interceptor drop, or a stale delayed copy).
	KindLost
	// KindCrash reports a node being crash-stopped by an interceptor.
	KindCrash
	// KindNbrs reports a fragment root's supergraph degree after the
	// NBR-INFO broadcast (deterministic variants only): Aux is the
	// number of accepted supergraph edges, bounded by 4 per the paper's
	// sparsification.
	KindNbrs
)

// String returns the JSONL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindStep:
		return "step"
	case KindMerge:
		return "merge"
	case KindSleep:
		return "sleep"
	case KindAwake:
		return "awake"
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindLost:
		return "lost"
	case KindCrash:
		return "crash"
	case KindNbrs:
		return "nbrs"
	default:
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Step identifies one instrumented step of an algorithm phase; the
// per-phase awake budget is attributed to these labels.
type Step uint8

// The phase-step taxonomy shared by the three LDT algorithms. Not
// every algorithm emits every step: Randomized-MST skips StepNbrInfo
// and StepColoring; the deterministic variants emit all seven.
const (
	// StepNone is the zero value (no step).
	StepNone Step = iota
	// StepFindMOE covers fragment refresh, Upcast-Min of the MOE, and
	// the Fragment-Broadcast of its identity.
	StepFindMOE
	// StepMarkMOE covers the Transmit-Adjacent block that marks MOE
	// edges (and exchanges coin flips in the randomized algorithm).
	StepMarkMOE
	// StepValidate covers MOE validity: the tails->heads upcast in the
	// randomized algorithm; the incoming-MOE count, token distribution,
	// and accept/reject notices in the deterministic ones.
	StepValidate
	// StepNbrInfo covers the supergraph NBR-INFO collection and
	// broadcast (deterministic variants only).
	StepNbrInfo
	// StepColoring covers the coloring stages: Fast-Awake-Coloring or
	// the Cole-Vishkin style log* variant (deterministic variants only).
	StepColoring
	// StepDecide covers the fragment-wide merge-decision broadcast.
	StepDecide
	// StepMerge covers the Merging-Fragments wave(s).
	StepMerge
	// StepMISSample covers one MIS sparsification phase: the candidacy
	// and rank exchange plus the join/covered announcements (MIS
	// problem only).
	StepMISSample
	// StepMISCleanup covers the MIS residual cleanup: the undecided-set
	// sync plus the rank-slotted greedy decisions (MIS problem only).
	StepMISCleanup
)

// Steps lists every real step in canonical (emission) order.
var Steps = [...]Step{StepFindMOE, StepMarkMOE, StepValidate, StepNbrInfo, StepColoring, StepDecide, StepMerge, StepMISSample, StepMISCleanup}

// String returns the JSONL name of the step.
func (s Step) String() string {
	switch s {
	case StepNone:
		return "none"
	case StepFindMOE:
		return "find-moe"
	case StepMarkMOE:
		return "mark-moe"
	case StepValidate:
		return "validate"
	case StepNbrInfo:
		return "nbr-info"
	case StepColoring:
		return "coloring"
	case StepDecide:
		return "decide"
	case StepMerge:
		return "merge"
	case StepMISSample:
		return "mis-sample"
	case StepMISCleanup:
		return "mis-cleanup"
	default:
		return "Step(" + strconv.Itoa(int(s)) + ")"
	}
}

// ParseStep converts a JSONL step name back to its Step.
func ParseStep(s string) (Step, error) {
	for _, st := range Steps {
		if st.String() == s {
			return st, nil
		}
	}
	if s == StepNone.String() {
		return StepNone, nil
	}
	return StepNone, fmt.Errorf("trace: unknown step %q", s)
}

// Event is one structured trace record. Which fields are meaningful
// depends on Kind; unused fields are zero:
//
//	KindPhase:   Round (first round of the phase), Node, Phase, Frag
//	KindStep:    Round (round after the step), Node, Phase, Step, Aux
//	             (awake rounds the node spent in the step)
//	KindMerge:   Round (round after the merge), Node, Frag (new
//	             fragment), Prev (old fragment)
//	KindSleep:   Round (the wake round ending the gap), Node, Aux (the
//	             last awake round before the gap; 0 = never awake)
//	KindAwake:   Round, Node
//	KindSend:    Round, Node (sender), Port (sender's port), Peer
//	             (receiver)
//	KindDeliver: Round, Node (receiver), Port (receiver's port), Peer
//	             (sender)
//	KindLost:    Round, Node (sender), Port (sender's port), Peer
//	             (intended receiver)
//	KindCrash:   Round (crash-stop round), Node
//	KindNbrs:    Round (round after the NBR-INFO broadcast), Node (the
//	             fragment root), Phase, Aux (supergraph degree)
type Event struct {
	// Round is the simulated round the event belongs to.
	Round int64
	// Frag is the fragment ID (KindPhase, KindMerge).
	Frag int64
	// Prev is the pre-merge fragment ID (KindMerge).
	Prev int64
	// Aux is the kind-specific extra value: awake delta for KindStep,
	// last-awake round for KindSleep.
	Aux int64
	// Node is the acting node (sender for sends, receiver for
	// deliveries).
	Node int32
	// Port is the acting node's port (KindSend, KindDeliver, KindLost).
	Port int32
	// Peer is the other endpoint (KindSend, KindDeliver, KindLost).
	Peer int32
	// Phase is the 1-based phase number (KindPhase, KindStep).
	Phase int32
	// Kind is the event type.
	Kind Kind
	// Step is the phase-step label (KindStep).
	Step Step
}

// DefaultCapacity is the recorder's default total event capacity.
const DefaultCapacity = 1 << 18

// A stream's first chunk holds minChunk events and each later one
// twice its predecessor, up to maxChunk (56 KiB).
const (
	minChunk = 16
	maxChunk = 1024
)

// stream is one bounded ring of events, stored in chunks that are
// allocated on demand and never copied or regrown.
type stream struct {
	chunks  [][]Event
	n       int // live events
	head    int // chunk holding the oldest event once the ring is full
	off     int // the oldest event's index within chunks[head]
	dropped int64
}

// push appends an event, evicting the oldest once limit events are live.
func (s *stream) push(limit int, ev Event) {
	if s.n < limit {
		k := len(s.chunks) - 1
		if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
			size := minChunk
			if k >= 0 {
				size = min(2*cap(s.chunks[k]), maxChunk)
			}
			s.chunks = append(s.chunks, make([]Event, 0, min(size, limit-s.n)))
			k++
		}
		s.chunks[k] = append(s.chunks[k], ev)
		s.n++
		return
	}
	s.chunks[s.head][s.off] = ev
	s.dropped++
	if s.off++; s.off == len(s.chunks[s.head]) {
		s.off, s.head = 0, (s.head+1)%len(s.chunks)
	}
}

// Recorder is a bounded, allocation-limited structured event recorder
// for one simulation run. It keeps one ring per event source — the
// scheduler plus each node, all written from the simulator's goroutine
// — and reconstructs the canonical event order at read time (see
// Events), which is deterministic because every stream's content is
// deterministic for a fixed seed.
//
// A Recorder serves one run at a time: sim.Run calls Begin, which
// resets all streams. It must not be shared by concurrent runs (give
// every sweep job its own Recorder).
type Recorder struct {
	capacity int
	n        int
	rounds   int64
	sched    stream   // scheduler-side events
	nodes    []stream // per-node events
	schedCap int
	nodeCap  int
}

// NewRecorder returns a Recorder bounding its memory by capacity
// events (0 means DefaultCapacity). Half the budget goes to the
// scheduler stream (awake/send/deliver/lost events dominate), the
// other half is split evenly across node streams; when a stream
// overflows its share, its oldest events are discarded and counted in
// Dropped. Every stream holds at least 64 events, so a small capacity
// on many nodes holds more than capacity events: at capacity 64 and
// n = 48, up to 64 + 48·64 = 3,136.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Begin resets the recorder for a run on n nodes. It is called by
// sim.Run; only the rare caller driving the simulator directly calls
// it by hand.
func (r *Recorder) Begin(n int) {
	r.n = n
	r.rounds = 0
	r.sched = stream{}
	r.nodes = make([]stream, n)
	r.schedCap = r.capacity / 2
	if r.schedCap < 64 {
		r.schedCap = 64
	}
	r.nodeCap = r.capacity / 2 / n
	if r.nodeCap < 64 {
		r.nodeCap = 64
	}
}

// N returns the node count of the recorded run (0 before Begin).
func (r *Recorder) N() int { return r.n }

// Rounds returns the largest round observed in an awake event.
func (r *Recorder) Rounds() int64 { return r.rounds }

// Dropped returns the number of events evicted by ring overflow.
func (r *Recorder) Dropped() int64 {
	d := r.sched.dropped
	for i := range r.nodes {
		d += r.nodes[i].dropped
	}
	return d
}

// Len returns the number of live (non-evicted) events.
func (r *Recorder) Len() int {
	n := r.sched.n
	for i := range r.nodes {
		n += r.nodes[i].n
	}
	return n
}

// Event records ev: scheduler-side kinds in the scheduler stream,
// node-side kinds in the stream of ev.Node.
func (r *Recorder) Event(ev Event) {
	switch ev.Kind {
	case KindAwake:
		r.rounds = max(r.rounds, ev.Round)
		fallthrough
	case KindSend, KindDeliver, KindLost:
		r.sched.push(r.schedCap, ev)
	default:
		r.nodes[ev.Node].push(r.nodeCap, ev)
	}
}

// Passed does nothing: a recorder orders its events when they are
// read (see Events).
func (r *Recorder) Passed(int64) {}

// appendTo appends the stream's live events to dst, oldest first.
func (s *stream) appendTo(dst []Event) []Event {
	if s.n == 0 {
		return dst
	}
	oldest := s.chunks[s.head]
	dst = append(dst, oldest[s.off:]...)
	for _, c := range s.chunks[s.head+1:] {
		dst = append(dst, c...)
	}
	for _, c := range s.chunks[:s.head] {
		dst = append(dst, c...)
	}
	return append(dst, oldest[:s.off]...)
}

// Events returns the live events in canonical order: ascending
// (Round, Node, Kind), with ties in gathering order — the scheduler
// stream first, then the node streams by index, each oldest first —
// which is the (stream, per-stream sequence) tiebreak. The order is
// total and deterministic for a fixed-seed run, which is what makes
// the JSONL stream byte-identical across repeats and worker counts.
func (r *Recorder) Events() []Event {
	evs := make([]Event, 0, r.Len())
	evs = r.sched.appendTo(evs)
	for i := range r.nodes {
		evs = r.nodes[i].appendTo(evs)
	}
	return sortCanonical(evs, make([]Event, len(evs)))
}

// sortField names one component of the canonical sort key.
type sortField uint8

const (
	byKind sortField = iota
	byNode
	byRound
)

// key maps the field of ev to an unsigned key with the same order:
// the signed fields get their sign bit flipped, so negative values
// sort below non-negative ones.
func (f sortField) key(ev *Event) uint64 {
	switch f {
	case byKind:
		return uint64(ev.Kind)
	case byNode:
		return uint64(uint32(ev.Node) ^ 1<<31)
	default:
		return uint64(ev.Round) ^ 1<<63
	}
}

// sortCanonical orders evs stably by (Round, Node, Kind) and returns
// the result, which is evs or buf[:len(evs)]; buf must hold len(evs)
// events. It is an LSD radix sort: one stable counting pass per byte
// of Kind, then Node, then Round. A field takes only the passes for
// the bytes in which its smallest and largest keys differ — every key
// between them shares the higher bytes — so a 48-node run of under
// 65,536 rounds sorts in four passes, and one round of it in two.
func sortCanonical(evs, buf []Event) []Event {
	if len(evs) < 2 {
		return evs
	}
	lo := [3]uint64{math.MaxUint64, math.MaxUint64, math.MaxUint64}
	var hi [3]uint64
	for i := range evs {
		for f := byKind; f <= byRound; f++ {
			k := f.key(&evs[i])
			lo[f], hi[f] = min(lo[f], k), max(hi[f], k)
		}
	}
	src, dst := evs, buf[:len(evs)]
	for f := byKind; f <= byRound; f++ {
		span := lo[f] ^ hi[f]
		for shift := uint(0); span>>shift != 0; shift += 8 {
			radixPass(dst, src, f, shift)
			src, dst = dst, src
		}
	}
	return src
}

// radixPass stably scatters src into dst by the byte of field f's key
// at shift.
func radixPass(dst, src []Event, f sortField, shift uint) {
	var next [256]int
	for i := range src {
		next[byte(f.key(&src[i])>>shift)]++
	}
	pos := 0
	for d, c := range next {
		next[d] = pos
		pos += c
	}
	for i := range src {
		d := byte(f.key(&src[i]) >> shift)
		dst[next[d]] = src[i]
		next[d]++
	}
}

// Meta is the run-level header/footer information of a JSONL trace.
type Meta struct {
	// N is the node count of the run.
	N int
	// Rounds is the largest awake round observed.
	Rounds int64
	// Events is the number of event lines in the stream.
	Events int64
	// Dropped counts events evicted by ring overflow (they are missing
	// from the stream).
	Dropped int64
}

// Meta returns the run-level header for the current recording.
func (r *Recorder) Meta() Meta {
	return Meta{N: r.n, Rounds: r.rounds, Events: int64(r.Len()), Dropped: r.Dropped()}
}

// WriteJSONL writes the canonical trace: a begin line, one line per
// event in canonical order, and an end line. The field order within
// each line is fixed, so a fixed-seed run produces a byte-identical
// stream. See DESIGN.md §8 for the field-by-field schema.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteEventsJSONL(w, r.Meta(), r.Events())
}

// WriteEventsJSONL writes a (meta, events) pair in the canonical JSONL
// trace format — the same stream WriteJSONL produces from a live
// recorder. Callers already holding a finished run's events (the
// model checker emitting a counterexample, mstbench summarizing a
// run) write them with it instead of ordering them again through
// WriteJSONL; events must already be in canonical order.
func WriteEventsJSONL(w io.Writer, meta Meta, events []Event) error {
	const chunk = 32 << 10
	buf := appendBegin(make([]byte, 0, chunk), meta)
	for _, ev := range events {
		if len(buf) > chunk-maxLine {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = appendEvent(buf, ev)
	}
	_, err := w.Write(appendEnd(buf, meta))
	return err
}

// AppendEventsJSONL appends the stream WriteEventsJSONL writes for
// (meta, events) to dst.
func AppendEventsJSONL(dst []byte, meta Meta, events []Event) []byte {
	dst = appendBegin(dst, meta)
	for _, ev := range events {
		dst = appendEvent(dst, ev)
	}
	return appendEnd(dst, meta)
}

// maxLine is longer than any rendered line.
const maxLine = 128

// appendBegin appends the stream's begin line.
func appendBegin(dst []byte, meta Meta) []byte {
	dst = appendField(append(dst, `{"k":"begin"`...), `,"n":`, int64(meta.N))
	return append(dst, "}\n"...)
}

// appendEnd appends the stream's end line.
func appendEnd(dst []byte, meta Meta) []byte {
	dst = appendField(append(dst, `{"k":"end"`...), `,"rounds":`, meta.Rounds)
	dst = appendField(appendField(dst, `,"events":`, meta.Events), `,"dropped":`, meta.Dropped)
	return append(dst, "}\n"...)
}

// appendEvent appends ev's JSONL line, newline included, with a fixed
// field order; an event of unknown kind renders as nothing.
func appendEvent(dst []byte, ev Event) []byte {
	if ev.Kind > KindNbrs {
		return dst
	}
	dst = append(dst, `{"k":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = appendField(append(dst, '"'), `,"r":`, ev.Round)
	dst = appendField(dst, `,"v":`, int64(ev.Node))
	switch ev.Kind {
	case KindPhase:
		dst = appendField(dst, `,"ph":`, int64(ev.Phase))
		dst = appendField(dst, `,"f":`, ev.Frag)
	case KindStep:
		dst = appendField(dst, `,"ph":`, int64(ev.Phase))
		dst = append(dst, `,"st":"`...)
		dst = append(dst, ev.Step.String()...)
		dst = appendField(append(dst, '"'), `,"aw":`, ev.Aux)
	case KindMerge:
		dst = appendField(dst, `,"f":`, ev.Frag)
		dst = appendField(dst, `,"pf":`, ev.Prev)
	case KindSleep:
		dst = appendField(dst, `,"from":`, ev.Aux)
	case KindSend, KindLost:
		dst = appendField(dst, `,"p":`, int64(ev.Port))
		dst = appendField(dst, `,"to":`, int64(ev.Peer))
	case KindDeliver:
		dst = appendField(dst, `,"p":`, int64(ev.Port))
		dst = appendField(dst, `,"from":`, int64(ev.Peer))
	case KindNbrs:
		dst = appendField(dst, `,"ph":`, int64(ev.Phase))
		dst = appendField(dst, `,"deg":`, ev.Aux)
	}
	return append(dst, "}\n"...)
}

// appendField appends a JSON member: name carries the separator,
// quotes and colon.
func appendField(dst []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(dst, name...), v, 10)
}

// lineSize returns len(appendEvent(nil, *ev)) without rendering it.
func lineSize(ev *Event) int {
	n := len(`{"k":"","r":,"v":}`+"\n") + len(ev.Kind.String()) + intLen(ev.Round) + intLen(int64(ev.Node))
	switch ev.Kind {
	case KindAwake, KindCrash:
		return n
	case KindPhase:
		return n + len(`,"ph":,"f":`) + intLen(int64(ev.Phase)) + intLen(ev.Frag)
	case KindStep:
		return n + len(`,"ph":,"st":"","aw":`) + intLen(int64(ev.Phase)) + len(ev.Step.String()) + intLen(ev.Aux)
	case KindMerge:
		return n + len(`,"f":,"pf":`) + intLen(ev.Frag) + intLen(ev.Prev)
	case KindSleep:
		return n + len(`,"from":`) + intLen(ev.Aux)
	case KindSend, KindLost:
		return n + len(`,"p":,"to":`) + intLen(int64(ev.Port)) + intLen(int64(ev.Peer))
	case KindDeliver:
		return n + len(`,"p":,"from":`) + intLen(int64(ev.Port)) + intLen(int64(ev.Peer))
	case KindNbrs:
		return n + len(`,"ph":,"deg":`) + intLen(int64(ev.Phase)) + intLen(ev.Aux)
	}
	return 0 // an unknown kind renders as nothing
}

// intLen returns len(strconv.AppendInt(nil, v, 10)).
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// String renders the event as its JSONL line (without the trailing
// newline), the same bytes WriteJSONL emits for it.
func (ev Event) String() string {
	line := appendEvent(nil, ev)
	if len(line) == 0 {
		return ""
	}
	return string(line[:len(line)-1])
}
