package trace

import (
	"fmt"
	"io"
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
// KindMerge, KindNbrs) are emitted for one node, either by the node's
// program or by the scheduler while that node is parked.
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

// DefaultCapacity is the recorder's default event capacity.
const DefaultCapacity = 1 << 18

// Recorder is a Sink that keeps the first events of a run in canonical
// order: an Orderer whose release appends each passed round to a list
// of chunks until they hold capacity events. Meta counts the events
// past the cap as dropped, so a capped recording is a prefix of the
// run's canonical stream, the same prefix a JSONL render with that
// event cap ships.
//
// A chunk, once full, is never copied again: each new one is as large
// as the recording so far, so there are few, and Events joins them
// once. A recording thus writes its events twice at most, where one
// slice grown by doubling copied them about three times.
//
// A Recorder serves one run at a time: sim.Run calls Begin, which
// resets it. It must not be shared by concurrent runs (give every
// sweep job its own Recorder).
type Recorder struct {
	ord    *Orderer
	chunks [][]Event // the kept events in order; only the last has room
	kept   int
}

// minChunk is the size, in events, of a recording's first chunk.
const minChunk = 512

// NewRecorder returns a Recorder that keeps at most capacity events (0
// means DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{}
	r.ord = NewOrderer(func(events []Event) {
		events = events[:min(len(events), capacity-r.kept)]
		for len(events) > 0 {
			last := len(r.chunks) - 1
			if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
				size := min(max(r.kept, minChunk), capacity-r.kept)
				r.chunks = append(r.chunks, make([]Event, 0, size))
				last++
			}
			c := r.chunks[last]
			k := min(len(events), cap(c)-len(c))
			r.chunks[last] = append(c, events[:k]...)
			events = events[k:]
			r.kept += k
		}
	})
	return r
}

// Begin resets the recorder for a run on n nodes. It is called by
// sim.Run; only a caller driving the recorder by hand calls it itself.
func (r *Recorder) Begin(n int) {
	r.ord.Begin(n)
	r.chunks, r.kept = nil, 0
}

// Event reports one event of the run (see Sink).
func (r *Recorder) Event(ev Event) { r.ord.Event(ev) }

// Passed keeps the events of every round at or before round, up to
// the capacity (see Sink).
func (r *Recorder) Passed(round int64) { r.ord.Passed(round) }

// Events returns the kept events in canonical order: ascending (Round,
// Node, Kind), and events of one (Round, Node, Kind) in the order they
// were reported. Like Meta it covers the rounds passed so far, which
// after sim.Run is the whole run. The first call joins the chunks into
// one slice, which the recorder keeps as its one chunk, so later calls
// return it without copying.
func (r *Recorder) Events() []Event {
	if len(r.chunks) > 1 {
		joined := make([]Event, 0, r.kept)
		for _, c := range r.chunks {
			joined = append(joined, c...)
		}
		r.chunks = [][]Event{joined}
	}
	if len(r.chunks) == 0 {
		return nil
	}
	c := r.chunks[0]
	return c[:len(c):len(c)]
}

// Meta is the run-level header/footer information of a JSONL trace.
type Meta struct {
	// N is the node count of the run.
	N int
	// Rounds is the largest awake round observed.
	Rounds int64
	// Events is the number of event lines in the stream.
	Events int64
	// Dropped counts the run's events past the trace's event cap (they
	// are missing from the stream, which holds the first ones).
	Dropped int64
}

// Meta returns the header of the recording: the node count, the
// largest awake round of the run, the kept events, and as dropped the
// run's other events.
func (r *Recorder) Meta() Meta {
	m := r.ord.Meta()
	m.Dropped, m.Events = m.Events-int64(r.kept), int64(r.kept)
	return m
}

// WriteJSONL writes the canonical trace: a begin line, one line per
// kept event in canonical order, and an end line. The field order
// within each line is fixed, so a fixed-seed run produces a
// byte-identical stream. See DESIGN.md §8 for the field-by-field
// schema.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return writeJSONL(w, r.Meta(), r.chunks...)
}

// WriteEventsJSONL writes a (meta, events) pair in the canonical JSONL
// trace format — the same stream WriteJSONL produces from a recorder.
// Callers already holding a finished run's events (the model checker
// emitting a counterexample, mstbench summarizing a run) write them
// with it; events must already be in canonical order.
func WriteEventsJSONL(w io.Writer, meta Meta, events []Event) error {
	return writeJSONL(w, meta, events)
}

// writeJSONL writes meta and the events of parts, in order, as one
// canonical JSONL trace.
func writeJSONL(w io.Writer, meta Meta, parts ...[]Event) error {
	var round roundText
	buf := appendBegin(make([]byte, 0, jsonlChunk), meta)
	for _, events := range parts {
		for i := range events {
			if len(buf) > jsonlChunk-maxLine {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = appendEvent(buf, &events[i], &round)
		}
	}
	_, err := w.Write(appendEnd(buf, meta))
	return err
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

// lineHead holds each kind's event line up to the round's digits, as
// in {"k":"deliver","r":.
var lineHead = func() (head [KindNbrs + 1]string) {
	for k := range head {
		head[k] = `{"k":"` + Kind(k).String() + `","r":`
	}
	return head
}()

// roundText holds the digits of the round rendered last, so that a run
// of lines in one round formats them once.
type roundText struct {
	round int64
	n     int      // the digits' length in buf; 0 before the first round
	buf   [20]byte // math.MinInt64 takes 20
}

// digits returns the decimal digits of round.
func (t *roundText) digits(round int64) []byte {
	if t.n == 0 || round != t.round {
		t.round, t.n = round, len(strconv.AppendInt(t.buf[:0], round, 10))
	}
	return t.buf[:t.n]
}

// appendEvent appends ev's JSONL line, newline included, with a fixed
// field order: the kind's head from lineHead, the round's digits from
// round, then the other fields. An event of unknown kind renders as
// nothing.
func appendEvent(dst []byte, ev *Event, round *roundText) []byte {
	if ev.Kind > KindNbrs {
		return dst
	}
	dst = append(append(dst, lineHead[ev.Kind]...), round.digits(ev.Round)...)
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

// lineSize returns the length of the line appendEvent renders for ev,
// without rendering it.
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
	var round roundText
	line := appendEvent(nil, &ev, &round)
	if len(line) == 0 {
		return ""
	}
	return string(line[:len(line)-1])
}
