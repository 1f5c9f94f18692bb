// Package sim implements the synchronous sleeping-model CONGEST
// runtime of the paper (§1.1).
//
// Node programs are ordinary sequential Go code written against the
// Node API: Exchange participates in the node's next wake round
// (sending and receiving O(log n)-bit messages on ports), SleepUntil
// schedules the next wake round, and returning from the program
// terminates the node. The scheduler advances directly to the minimum
// next-wake round, so rounds in which every node sleeps cost O(1) —
// the deterministic algorithm's O(nN log n) round counts are metered
// without being paid in wall clock.
//
// One engine executes that contract (engine_event.go): a goroutine-free
// scheduler core in which node programs run as coroutine continuations
// on the scheduler's own thread, resumed and parked without channel
// handshakes, with per-round work queues that visit only awake nodes
// and pooled message buffers — the engine that reaches n = 10^5–10^6 on
// one machine.
//
// Semantics, matching the paper: rounds are numbered from 1 and all
// nodes are initially awake; a node awake in round r sends at the start
// of r and receives at the end of r; a message sent to a node that is
// asleep in round r is lost; local computation between rounds is free;
// only awake rounds count toward awake complexity.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// Sizer lets a message type declare its size in bits for congestion
// accounting. Messages that do not implement Sizer are charged
// DefaultMessageBits.
type Sizer interface {
	Bits() int
}

// tallyKey identifies a delivered message's msgs/type/<label> metric:
// the codec registered for its type and, when that codec unwraps a
// payload (transport.Codec.Inner), the payload's codec. Either is nil
// for an unregistered type.
type tallyKey struct{ outer, inner *transport.Codec }

func tallyKeyOf(msg interface{}) tallyKey {
	k := tallyKey{outer: transport.CodecOf(msg)}
	if k.outer != nil && k.outer.Inner != nil {
		k.inner = transport.CodecOf(k.outer.Inner(msg))
	}
	return k
}

// label returns the metric label of k: the codec's label, extended by
// the payload's label when both have one, and "other" for a type with
// no codec or no label.
func (k tallyKey) label() string {
	switch {
	case k.outer == nil || k.outer.Label == "":
		return "other"
	case k.inner != nil && k.inner.Label != "":
		return k.outer.Label + "-" + k.inner.Label
	}
	return k.outer.Label
}

// DefaultMessageBits is the size charged to messages that do not
// implement Sizer.
const DefaultMessageBits = 64

// Interceptor is the adversary hook, the one way a run departs from
// the paper's clean model: it perturbs wake scheduling and the message
// delivery point and sets a crash-stop schedule. Seeded chaos policies
// (internal/chaos) and the model checker's replayer
// (internal/modelcheck) implement it; a nil Config.Interceptor keeps
// the clean model at the cost of one nil check per park and per staged
// message. A hook may also have the optional method
// ChooseSender(round int64, remaining []int) int, which picks the
// routing order within a round (see senderChooser); only the model
// checker needs it, and a run over a Config.Transport rejects a hook
// that has it.
//
// Determinism contract: the runtime calls the methods from the
// scheduler goroutine only, in a total order that is a deterministic
// function of the run inputs (graph, seed, program) and of the values
// returned so far — BeginRun once; at every park InterceptWake, then
// CrashRound, parks in ascending node index within a round; when a
// round is delivered ChooseSender in routing order, then
// InterceptMessage per staged message in (routing order, port) order.
// So a hook may replay recorded choices by position, as the model
// checker does, or key its randomness on event coordinates, as chaos
// does. A hook whose every answer is the fixed one (the intended wake,
// no verdict, no crash, sender 0) leaves the run byte-identical to a
// run without a hook.
type Interceptor interface {
	// BeginRun is called once before round 1 with the network size, so
	// per-run state (crash tables, first-fault round) can be reset.
	BeginRun(n int)
	// InterceptMessage is called once per staged message at the
	// delivery point, after the send is metered and before routing.
	// The implementation may drop, delay, duplicate, or replace the
	// payload by mutating ev, which it must not keep past the call.
	InterceptMessage(ev *MessageEvent)
	// InterceptWake is called when a node parks with the round it
	// intends to be awake in next; the return value replaces that
	// round. Returns < intended are clamped to intended: the adversary
	// can make a node oversleep, never wake it early (an early wake
	// would need the node program's cooperation).
	InterceptWake(node int, intended int64) int64
	// CrashRound returns the round from which node is crash-stopped —
	// the node is not awake in any round >= the returned value and its
	// pending messages are discarded. 0 means the node never crashes.
	CrashRound(node int) int64
}

// senderChooser is the optional Interceptor method, detected once per
// run. ChooseSender picks the next of the remaining staged outboxes to
// route in round: remaining lists the senders not yet routed, in
// ascending node index at the first call, and the return value indexes
// into it (out-of-range values are clamped to 0). It is called only
// when two or more participants staged messages; composing the picks
// yields any routing permutation. The slice is owned by the runtime
// and must not be kept. The fixed choice is 0 (ascending index order).
type senderChooser interface {
	ChooseSender(round int64, remaining []int) int
}

// MessageEvent is one message at the delivery point. The interceptor
// mutates the verdict fields; the runtime applies them in order: a
// dropped message is lost outright; otherwise the (possibly replaced)
// payload is delivered Delay rounds late, plus Duplicate extra copies
// in the rounds after that. A delayed copy reaches the receiver only
// if the receiver is awake in the delivery round, exactly like a
// freshly sent message. The runtime refills one MessageEvent for every
// message of a run, so a hook must not keep ev past the call.
type MessageEvent struct {
	// Round, From, Port, To identify the send: node From sent Payload
	// on its port Port (towards node To) in round Round.
	Round int64
	From  int
	Port  int
	To    int
	// Payload is the message; the interceptor may replace it (e.g.
	// with a bit-flipped copy). Replacements are re-measured against
	// Config.BitCap on the receive side.
	Payload interface{}

	// Drop loses the message (metered as dropped + lost).
	Drop bool
	// Delay postpones delivery by that many rounds (0 = this round).
	Delay int64
	// Duplicate delivers that many extra copies in consecutive rounds
	// after the primary copy.
	Duplicate int
	// Mutated marks the payload as corrupted for metering.
	Mutated bool
}

// Outbox is a node's staged sends for one Exchange, indexed by port:
// out[p] is the message for port p and a nil slot sends nothing. Ports
// past the end of a short outbox stay silent; an outbox longer than
// the node's degree fails the run.
//
// A staged payload is shared, never copied: the runtime hands the
// interface value itself to the receiver, so the ports of one round
// may share one payload, and a program may stage the same box in many
// rounds (see Boxed). Nothing after the send mutates a payload: an
// Interceptor that corrupts one replaces it with a copy, a Transport
// encodes it by value, and a delayed copy keeps the box it was given.
// So sharing a box changes no delivered value, trace event, metric or
// frame. A program in turn must not change what a sent payload refers
// to (the elements of a slice, say) while a receiver may still read
// it.
type Outbox []interface{}

// Boxed is the memo of one send site: it boxes a message once per
// content instead of once per send. A node whose message changes
// rarely (an announcement that changes only when its fragment merges)
// keeps one Boxed per send site and stages Of(msg); the Outbox
// contract says why the shared box is safe. The zero value is ready to
// use. Of compares with ==, so T must be comparable at run time too:
// an interface field holding an uncomparable value panics.
type Boxed[T comparable] struct {
	last T
	box  interface{}
}

// Of returns msg as an interface value: the one it returned last when
// msg equals the value boxed then, a fresh box of msg otherwise. A box
// it returned earlier keeps the value it was made from.
func (b *Boxed[T]) Of(msg T) interface{} {
	if b.box == nil || msg != b.last {
		b.last, b.box = msg, msg
	}
	return b.box
}

// Inbox is what a node received in one Exchange, indexed by port. Its
// length is always the node's degree; in[p] is nil when nothing
// arrived on port p.
type Inbox []interface{}

// hasMessages reports whether out stages at least one message.
func hasMessages(out Outbox) bool {
	for _, msg := range out {
		if msg != nil {
			return true
		}
	}
	return false
}

// Program is the code run by every node.
type Program func(nd *Node) error

// Config parameterizes a simulation run.
type Config struct {
	// Graph is the network. Required.
	Graph *graph.Graph
	// Seed seeds the per-node private randomness.
	Seed int64
	// MaxRounds aborts the run if the simulated round counter exceeds
	// it. 0 means DefaultMaxRounds.
	MaxRounds int64
	// BitCap, if positive, makes the runtime fail the run when a
	// single message exceeds BitCap bits (CONGEST enforcement).
	BitCap int
	// AwakeBudget, if positive, fails the run as soon as any node
	// exceeds that many awake rounds — runtime enforcement of awake
	// complexity claims (e.g. c·log n for the paper's algorithms).
	AwakeBudget int64
	// RecordAwakeRounds records, per node, the exact rounds in which
	// the node was awake (for traces and schedule tests).
	RecordAwakeRounds bool
	// Interceptor, if non-nil, is invoked at wake scheduling and at
	// the delivery point: seeded fault injection, or the model
	// checker's branch choices (see Interceptor). Nil keeps the clean
	// model.
	Interceptor Interceptor
	// Trace, if non-nil, receives the run's structured events (awake,
	// sleep gaps, sends, deliveries, losses, crashes, plus whatever the
	// node program emits via EmitPhase/EmitStep/EmitMerge/EmitNbrs) as
	// they happen, and hears after every busy round which round is
	// passed (see trace.Sink): a *trace.Orderer releases them in
	// canonical order, a *trace.Recorder keeps the first ones. Nil —
	// the default — keeps tracing entirely off the hot path. The sink
	// serves this one run: Run calls Trace.Begin itself.
	Trace trace.Sink
	// Metrics, if non-nil, receives runtime counters (msgs/type/<label>
	// tallies from the scheduler, labeled by each message type's codec
	// registration; node programs may add their own via Node.Metrics).
	// Nil disables the accounting.
	Metrics *metrics.Registry
	// Transport, if non-nil, carries every same-round delivery as an
	// encoded wire frame through the given backend (see
	// internal/transport). The simulator keeps all model decisions —
	// losses to sleeping receivers, the CONGEST bit cap, awake
	// metering — so the run's traces, verdicts, metrics, and Result
	// are byte-identical to the in-memory run. Run calls
	// Transport.Listen; the caller owns Close. Incompatible with an
	// Interceptor that chooses the sender order (model checking stays
	// in-memory). Nil — the default — keeps delivery entirely
	// in-process with no wire encoding.
	Transport transport.Transport
	// Cancel, if non-nil, aborts the run at the next busy-round
	// barrier once the channel is closed: every node program unwinds,
	// Run returns ErrCanceled (wrapped), and the partial Result stays
	// valid — the mechanism behind per-request deadlines in
	// internal/service. The check is a non-blocking poll once per busy
	// round, so a nil or never-closed channel costs nothing
	// observable. Nil — the default — keeps runs uncancellable.
	Cancel <-chan struct{}
}

// DefaultMaxRounds caps runaway simulations.
const DefaultMaxRounds = int64(1) << 40

// Result aggregates the metrics of a completed run.
type Result struct {
	// Rounds is the largest round number in which any node was awake.
	Rounds int64
	// BusyRounds is the number of distinct rounds with >= 1 awake node
	// (the simulation's real cost).
	BusyRounds int64
	// AwakePerNode[i] is node i's awake-round count A_v.
	AwakePerNode []int64
	// HaltRound[i] is the last round in which node i was awake; in the
	// traditional always-awake model this is node i's awake time.
	HaltRound []int64
	// MessagesSent / MessagesDelivered / MessagesLost count messages;
	// lost messages were sent to sleeping neighbors.
	MessagesSent, MessagesDelivered, MessagesLost int64
	// MessagesSentPerNode[i] counts messages sent by node i (for
	// per-node energy accounting).
	MessagesSentPerNode []int64
	// BitsSent is the total message payload sent.
	BitsSent int64
	// BitsReceivedPerNode meters congestion per node — the quantity
	// Theorem 4 charges against awake time.
	BitsReceivedPerNode []int64
	// AwakeRounds[i] lists the rounds node i was awake, if
	// Config.RecordAwakeRounds was set.
	AwakeRounds [][]int64

	// Chaos metering. All fields below stay zero/nil unless
	// Config.Interceptor was set.

	// MessagesDropped counts messages lost to interceptor drops (they
	// are also counted in MessagesLost).
	MessagesDropped int64
	// MessagesDelayed counts primary copies postponed by the
	// interceptor; MessagesDuplicated counts injected extra copies.
	MessagesDelayed, MessagesDuplicated int64
	// MessagesCorrupted counts payloads the interceptor marked
	// Mutated.
	MessagesCorrupted int64
	// WakesPerturbed counts wake rounds the interceptor moved.
	WakesPerturbed int64
	// CrashRound[i] is the round from which node i was crash-stopped
	// (0 = never). Nil when no interceptor was configured.
	CrashRound []int64
}

// MaxAwake returns the worst-case awake complexity max_v A_v.
func (r *Result) MaxAwake() int64 {
	var m int64
	for _, a := range r.AwakePerNode {
		if a > m {
			m = a
		}
	}
	return m
}

// MeanAwake returns the node-averaged awake complexity.
func (r *Result) MeanAwake() float64 {
	if len(r.AwakePerNode) == 0 {
		return 0
	}
	var s int64
	for _, a := range r.AwakePerNode {
		s += a
	}
	return float64(s) / float64(len(r.AwakePerNode))
}

// MaxHaltRound returns the traditional-model round complexity: the
// last round any node was awake.
func (r *Result) MaxHaltRound() int64 {
	var m int64
	for _, h := range r.HaltRound {
		if h > m {
			m = h
		}
	}
	return m
}

// MaxBitsReceived returns the largest per-node received-bit count.
func (r *Result) MaxBitsReceived() int64 {
	var m int64
	for _, b := range r.BitsReceivedPerNode {
		if b > m {
			m = b
		}
	}
	return m
}

// TraceView projects the result onto the renderer-facing view
// consumed by trace.Timeline and trace.Histogram. The slices are
// shared, not copied.
func (r *Result) TraceView() trace.RunView {
	return trace.RunView{
		Rounds:       r.Rounds,
		AwakePerNode: r.AwakePerNode,
		AwakeRounds:  r.AwakeRounds,
		CrashRound:   r.CrashRound,
	}
}

// ErrAborted is returned (wrapped) when the run was torn down after a
// node failed.
var ErrAborted = errors.New("sim: run aborted")

// Typed failure causes, wrapped into the returned error so callers
// (e.g. the chaos oracle) can classify runs with errors.Is.
var (
	// ErrRoundCap: the round counter exceeded Config.MaxRounds.
	ErrRoundCap = errors.New("round cap exceeded")
	// ErrAwakeBudget: a node exceeded Config.AwakeBudget awake rounds.
	ErrAwakeBudget = errors.New("awake budget exceeded")
	// ErrBitCap: a message exceeded Config.BitCap bits.
	ErrBitCap = errors.New("bit cap exceeded")
	// ErrCanceled: Config.Cancel was closed while the run was in
	// flight; the run aborted at the next busy-round barrier.
	ErrCanceled = errors.New("run canceled")
)

// canceled reports whether Config.Cancel is closed (non-blocking).
func (c Config) canceled() bool {
	if c.Cancel == nil {
		return false
	}
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// abortPanic is the sentinel used to unwind node programs on abort.
type abortPanic struct{}

// Node is the per-node handle passed to Programs. Methods must only be
// called from that node's program (its coroutine continuation).
type Node struct {
	rt  *runtime
	idx int
	rng *rand.Rand // created lazily on first Rand call

	wake      int64 // round of the next Exchange
	awake     int64
	halted    bool
	aborted   bool
	perturbed bool // wake was delayed by the interceptor

	out Outbox // staged by Exchange, consumed by the scheduler

	// yield parks the node's coroutine inside Exchange; exitErr is the
	// program's return value, read by the scheduler after the
	// continuation completes.
	yield   func(struct{}) bool
	exitErr error
}

// Index returns the node's 0-based index in the graph.
func (nd *Node) Index() int { return nd.idx }

// ID returns the node's identifier.
func (nd *Node) ID() int64 { return nd.rt.cfg.Graph.ID(nd.idx) }

// N returns the network size, known to all nodes per the model.
func (nd *Node) N() int { return nd.rt.cfg.Graph.N() }

// MaxID returns the largest identifier N; the deterministic algorithm
// assumes nodes know it.
func (nd *Node) MaxID() int64 { return nd.rt.maxID }

// Degree returns the node's degree (number of ports).
func (nd *Node) Degree() int { return nd.rt.cfg.Graph.Degree(nd.idx) }

// Ports returns the node's port table: for each port, the edge weight
// is local knowledge; the neighbor index is exposed for convenience but
// algorithms faithful to the model must not use it as knowledge (they
// learn neighbor identity through messages).
func (nd *Node) Ports() []graph.Port { return nd.rt.cfg.Graph.Ports(nd.idx) }

// PortWeight returns the weight of the edge on port p.
func (nd *Node) PortWeight(p int) int64 { return nd.rt.cfg.Graph.Ports(nd.idx)[p].Weight }

// Round returns the round the next Exchange will occupy.
func (nd *Node) Round() int64 { return nd.wake }

// AwakeCount returns the number of awake rounds consumed so far.
func (nd *Node) AwakeCount() int64 { return nd.awake }

// Rand returns the node's private source of randomness. Its stream is
// exactly that of rand.New(rand.NewSource(s)) with
// s = Config.Seed·1_000_003 + index·7_919 + 1, for every method, so it
// is unaffected by when the first call happens. The source is created
// on first use, so deterministic algorithms never pay for it, and it
// computes its first 273 draws from the seed instead of filling
// math/rand's 607-word table, so a node that draws fewer holds about 80
// bytes of RNG state.
func (nd *Node) Rand() *rand.Rand {
	if nd.rng == nil {
		nd.rng = rand.New(newLazySource(nd.rt.cfg.Seed*1_000_003 + int64(nd.idx)*7_919 + 1))
	}
	return nd.rng
}

// Outbox returns the node's staging buffer, cleared: length Degree(),
// owned by the runtime and reused by every call, so the usual pattern
// (fill, Exchange, repeat) never allocates. It is valid until the
// node's next Outbox call; a program that must keep a staged outbox
// across that call makes its own with make(Outbox, nd.Degree()).
func (nd *Node) Outbox() Outbox {
	out := Outbox(nd.rt.slots(nd.rt.outbox, nd.idx))
	clear(out)
	return out
}

// Metrics returns the run's metrics registry. It is nil when the run
// was configured without one, which every registry method tolerates,
// so instrumented programs call it unconditionally.
func (nd *Node) Metrics() *metrics.Registry { return nd.rt.cfg.Metrics }

// EmitPhase records the node entering 1-based phase as a member of
// fragment frag, stamped with the node's next wake round. No-op
// without a trace sink.
func (nd *Node) EmitPhase(phase int, frag int64) {
	if sink := nd.rt.sink; sink != nil {
		sink.Event(trace.Event{Kind: trace.KindPhase, Round: nd.wake, Node: int32(nd.idx), Phase: int32(phase), Frag: frag})
	}
}

// EmitStep records the node completing a phase step on which it spent
// awake awake rounds, stamped with the node's next wake round. No-op
// without a trace sink.
func (nd *Node) EmitStep(phase int, step trace.Step, awake int64) {
	if sink := nd.rt.sink; sink != nil {
		sink.Event(trace.Event{Kind: trace.KindStep, Round: nd.wake, Node: int32(nd.idx), Phase: int32(phase), Step: step, Aux: awake})
	}
}

// EmitMerge records the node leaving fragment prev for fragment frag,
// stamped with the node's next wake round. No-op without a configured
// trace sink.
func (nd *Node) EmitMerge(prev, frag int64) {
	if sink := nd.rt.sink; sink != nil {
		sink.Event(trace.Event{Kind: trace.KindMerge, Round: nd.wake, Node: int32(nd.idx), Frag: frag, Prev: prev})
	}
}

// EmitNbrs records the node's fragment-supergraph degree deg in the
// given phase (emitted by fragment roots after the NBR-INFO
// broadcast), stamped with the node's next wake round. No-op without a
// configured trace sink.
func (nd *Node) EmitNbrs(phase, deg int) {
	if sink := nd.rt.sink; sink != nil {
		sink.Event(trace.Event{Kind: trace.KindNbrs, Round: nd.wake, Node: int32(nd.idx), Phase: int32(phase), Aux: int64(deg)})
	}
}

// SleepUntil schedules the next Exchange for round r. It panics if r
// precedes the node's next available round (a programming error in the
// algorithm, not a runtime condition) — unless an interceptor already
// delayed the node past r, in which case the target is clamped: a
// node that overslept through round r simply wakes at its next
// opportunity, which is exactly how it misses a merge wave.
func (nd *Node) SleepUntil(r int64) {
	if r < nd.wake {
		if nd.perturbed {
			return
		}
		panic(fmt.Sprintf("sim: node %d cannot sleep until past round %d (next available %d)", nd.idx, r, nd.wake))
	}
	nd.wake = r
}

// Exchange spends one awake round: the node is awake in round Round(),
// sends out[p] on every port p whose slot is non-nil, and receives the
// messages sent to it this round by awake neighbors. After Exchange
// returns the node is positioned before round Round()+1. A nil out
// sends nothing.
//
// The returned Inbox is the node's runtime-owned buffer, valid only
// until the node's next Exchange call, which clears it; programs that
// need a message beyond that must copy it out first.
func (nd *Node) Exchange(out Outbox) Inbox {
	if nd.aborted {
		panic(abortPanic{})
	}
	if deg := nd.Degree(); len(out) > deg {
		p := deg // name the first staged out-of-range port
		for p < len(out)-1 && out[p] == nil {
			p++
		}
		panic(fmt.Sprintf("sim: node %d sends on invalid port %d (degree %d)", nd.idx, p, deg))
	}
	// The program's lease on the previous inbox ends here, before the
	// node parks, so the scheduler can refill the buffer.
	rt := nd.rt
	if s := rt.stamp[nd.idx]; s < 0 {
		clear(rt.slots(rt.inbox, nd.idx))
		rt.stamp[nd.idx] = -s
	}
	nd.out = out
	// Suspend the coroutine until the scheduler resumes it; a false
	// return means the scheduler tore the run down (crash-stop or
	// abort) while the node was parked.
	if !nd.yield(struct{}{}) {
		panic(abortPanic{})
	}
	nd.out = nil
	return Inbox(rt.slots(rt.inbox, nd.idx))
}

// slots returns node v's slots of a per-port table on the port
// offsets, capped so that an append copies.
func (rt *runtime) slots(table []interface{}, v int) []interface{} {
	lo, hi := rt.off[v], rt.off[v+1]
	return table[lo:hi:hi]
}

// awake reports whether node v participates in round.
func (rt *runtime) awake(v int, round int64) bool {
	s := rt.stamp[v]
	return s == round || s == -round
}

// runtime is the scheduler state.
type runtime struct {
	cfg    Config
	maxID  int64
	nodes  []*Node
	res    *Result
	failed error

	// sink mirrors cfg.Trace; tally batches per-label delivery counts
	// locally (scheduler thread only) and is flushed into cfg.Metrics
	// once at the end of the run.
	sink  trace.Sink
	tally map[tallyKey]int64

	delayed delayHeap // in-flight messages postponed by the interceptor
	seq     int64     // FIFO tiebreak for delayed messages

	// The message plane, laid out on the graph's port offsets off:
	// inbox[off[v]+p] is what node v received on port p, and
	// outbox[off[v]+p] the slot Outbox stages for port p.
	off           []int
	inbox, outbox []interface{}

	// stamp[v] is r or -r iff node v participates in round r (rounds
	// start at 1, so 0 means "never stamped"). It turns negative when
	// deposit fills v's inbox and back when v's next Exchange clears
	// it, so the mark costs deposit no load beyond the slot it stores.
	stamp []int64

	// ev is the one MessageEvent every InterceptMessage call fills.
	ev MessageEvent

	// order is the Interceptor's ChooseSender, nil unless it has one;
	// sendOrder/sendPool are chooseSendOrder scratch, reused across
	// rounds.
	order               senderChooser
	sendOrder, sendPool []int

	// tx is the transport shim state; nil unless Config.Transport is
	// set (see transport.go).
	tx *txState
}

// delayedMsg is one interceptor-postponed message copy: it reaches
// node to on port rev in round round iff to is awake then.
type delayedMsg struct {
	round    int64
	seq      int64
	from     int
	fromPort int
	to       int
	rev      int
	msg      interface{}
}

// delayHeap is a hand-rolled min-heap ordered by (round, seq). The
// typed push/pop avoid the interface boxing container/heap would pay
// per staged message; popped slots keep their backing capacity.
type delayHeap []delayedMsg

func (h delayHeap) less(i, j int) bool {
	if h[i].round != h[j].round {
		return h[i].round < h[j].round
	}
	return h[i].seq < h[j].seq
}

func (h *delayHeap) push(d delayedMsg) {
	*h = append(*h, d)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *delayHeap) pop() delayedMsg {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = delayedMsg{} // release the payload reference
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s.less(l, least) {
			least = l
		}
		if r < len(s) && s.less(r, least) {
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

// Run executes prog on every node of the configured graph and returns
// the metrics. It returns an error if any node program fails, panics,
// violates the bit cap, or the round cap is exceeded; the returned
// Result is valid (partial) even on error.
func Run(cfg Config, prog Program) (*Result, error) {
	if cfg.Graph == nil {
		return nil, errors.New("sim: config requires a graph")
	}
	order, _ := cfg.Interceptor.(senderChooser)
	if order != nil && cfg.Transport != nil {
		return nil, errors.New("sim: config cannot combine Transport with an Interceptor that chooses the sender order (model checking stays in-memory)")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	n := cfg.Graph.N()
	off := cfg.Graph.PortOffsets()
	rt := &runtime{
		cfg:    cfg,
		maxID:  cfg.Graph.MaxID(),
		nodes:  make([]*Node, n),
		off:    off,
		inbox:  make([]interface{}, off[n]),
		outbox: make([]interface{}, off[n]),
		stamp:  make([]int64, n),
		order:  order,
		res: &Result{
			AwakePerNode:        make([]int64, n),
			HaltRound:           make([]int64, n),
			BitsReceivedPerNode: make([]int64, n),
			MessagesSentPerNode: make([]int64, n),
		},
	}
	if cfg.RecordAwakeRounds {
		rt.res.AwakeRounds = make([][]int64, n)
	}
	if cfg.Interceptor != nil {
		rt.res.CrashRound = make([]int64, n)
		cfg.Interceptor.BeginRun(n)
	}
	if order != nil {
		rt.sendOrder, rt.sendPool = make([]int, 0, n), make([]int, 0, n)
	}
	if cfg.Trace != nil {
		rt.sink = cfg.Trace
		rt.sink.Begin(n)
	}
	if cfg.Metrics != nil {
		rt.tally = make(map[tallyKey]int64)
	}
	if cfg.Transport != nil {
		if err := cfg.Transport.Listen(n); err != nil {
			return nil, fmt.Errorf("sim: transport listen: %w", err)
		}
		rt.tx = newTxState(cfg.Transport, n)
	}
	// One contiguous node arena (struct-of-arrays style bookkeeping
	// lives in rt.res and the engine; the program-facing handles sit
	// cache-adjacent here instead of n separate heap objects).
	arena := make([]Node, n)
	for i := 0; i < n; i++ {
		arena[i] = Node{rt: rt, idx: i, wake: 1}
		rt.nodes[i] = &arena[i]
	}
	rt.runEvent(prog)
	// Messages still in flight when the run ends never reach anyone.
	rt.res.MessagesLost += int64(len(rt.delayed))
	if rt.sink != nil {
		for _, d := range rt.delayed {
			rt.traceMsg(trace.KindLost, d.round, d.from, d.fromPort, d.to)
		}
		rt.sink.Passed(math.MaxInt64)
	}
	for k, c := range rt.tally {
		cfg.Metrics.Add(metrics.MsgName(k.label()), c)
	}
	if cfg.Metrics != nil {
		// Node-averaged awake accounting: the sum and the denominator
		// are recorded separately so the average stays exact (and
		// worker-count independent) under registry merging.
		var sum int64
		for _, a := range rt.res.AwakePerNode {
			sum += a
		}
		cfg.Metrics.Add(metrics.NodeAvgSum, sum)
		cfg.Metrics.Add(metrics.NodeAvgNodes, int64(n))
	}
	if rt.failed != nil {
		return rt.res, rt.failed
	}
	return rt.res, nil
}

// wakeEntry is a min-heap entry: a parked node and its wake round.
// Every parked node has exactly one live entry (entries are pushed on
// park and popped exactly when the node is resumed), so entries are
// never stale.
type wakeEntry struct {
	round int64
	idx   int
}

// wakeHeap is a hand-rolled min-heap ordered by (round, idx); the
// typed push/pop avoid per-entry interface boxing and the slice keeps
// its capacity across rounds. Because the order is total, repeated
// pops for one round yield participants in increasing index order.
type wakeHeap []wakeEntry

func (h wakeHeap) less(i, j int) bool {
	if h[i].round != h[j].round {
		return h[i].round < h[j].round
	}
	return h[i].idx < h[j].idx
}

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *wakeHeap) pop() wakeEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s.less(l, least) {
			least = l
		}
		if r < len(s) && s.less(r, least) {
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

// deliver routes the staged outboxes of the round's participants to
// participants that are awake, metering messages and bits. With an
// interceptor configured it also flushes previously delayed copies,
// lets the interceptor choose the routing order if it has
// ChooseSender, and applies its message verdicts; delayed copies land
// before fresh sends, so a fresh message overwrites a stale replay
// arriving on the same port in the same round. Ports are walked in
// ascending order, so the interceptor and the recorder's event stream
// see a deterministic sequence.
func (rt *runtime) deliver(round int64, participants []int) error {
	for _, idx := range participants {
		rt.stamp[idx] = round
	}
	itc := rt.cfg.Interceptor
	senders := participants
	if itc != nil {
		if err := rt.deliverDelayed(round); err != nil {
			return err
		}
		if rt.order != nil {
			senders = rt.chooseSendOrder(round, participants)
		}
	}
	for _, idx := range senders {
		nd := rt.nodes[idx]
		ports := rt.cfg.Graph.Ports(idx)
		for p, msg := range nd.out {
			if msg == nil {
				continue
			}
			bits := MessageBits(msg)
			if rt.cfg.BitCap > 0 && bits > rt.cfg.BitCap {
				return fmt.Errorf("sim: node %d sent %d-bit message on port %d in round %d, cap %d: %w (%w)",
					idx, bits, p, round, rt.cfg.BitCap, ErrBitCap, ErrAborted)
			}
			rt.res.MessagesSent++
			rt.res.MessagesSentPerNode[idx]++
			rt.res.BitsSent += int64(bits)
			if rt.sink != nil {
				rt.traceMsg(trace.KindSend, round, idx, p, ports[p].To)
			}
			if itc == nil {
				// Without an interceptor: clean delivery semantics.
				if !rt.awake(ports[p].To, round) {
					rt.res.MessagesLost++
					if rt.sink != nil {
						rt.traceMsg(trace.KindLost, round, idx, p, ports[p].To)
					}
					continue
				}
				if err := rt.route(round, 0, idx, p, ports[p].To, ports[p].RevPort, msg, bits); err != nil {
					return err
				}
				continue
			}
			ev := &rt.ev
			*ev = MessageEvent{Round: round, From: idx, Port: p, To: ports[p].To, Payload: msg}
			itc.InterceptMessage(ev)
			if ev.Mutated {
				rt.res.MessagesCorrupted++
			}
			if ev.Drop {
				rt.res.MessagesDropped++
				rt.res.MessagesLost++
				if rt.sink != nil {
					rt.traceMsg(trace.KindLost, round, idx, p, ports[p].To)
				}
				continue
			}
			if ev.Delay < 0 {
				ev.Delay = 0
			}
			if ev.Delay > 0 {
				rt.res.MessagesDelayed++
			}
			for c := 0; c <= ev.Duplicate; c++ {
				if c > 0 {
					rt.res.MessagesDuplicated++
				}
				at := round + ev.Delay + int64(c)
				if at == round {
					if !rt.awake(ports[p].To, round) {
						rt.res.MessagesLost++
						if rt.sink != nil {
							rt.traceMsg(trace.KindLost, round, idx, p, ports[p].To)
						}
						continue
					}
					if err := rt.route(round, 0, idx, p, ports[p].To, ports[p].RevPort, ev.Payload, -1); err != nil {
						return err
					}
					continue
				}
				rt.seq++
				rt.delayed.push(delayedMsg{
					round: at, seq: rt.seq,
					from: idx, fromPort: p,
					to: ports[p].To, rev: ports[p].RevPort,
					msg: ev.Payload,
				})
			}
		}
	}
	if rt.tx != nil {
		return rt.txDrain(round)
	}
	return nil
}

// chooseSendOrder returns the order in which the round's staged
// outboxes are routed, as the interceptor's ChooseSender selects it:
// repeatedly pick the next sender among the remaining ones.
// Participants without staged messages are excluded — their routing
// position is unobservable, so offering it as a branch point would
// only inflate the explorer's tree with equivalent schedules. The
// scratch slices are reused across rounds.
func (rt *runtime) chooseSendOrder(round int64, participants []int) []int {
	rt.sendOrder = rt.sendOrder[:0]
	rt.sendPool = rt.sendPool[:0]
	for _, idx := range participants {
		if hasMessages(rt.nodes[idx].out) {
			rt.sendPool = append(rt.sendPool, idx)
		}
	}
	if len(rt.sendPool) <= 1 {
		return append(rt.sendOrder, rt.sendPool...)
	}
	for len(rt.sendPool) > 0 {
		j := 0
		if len(rt.sendPool) > 1 { // a single remainder is not a branch
			j = rt.order.ChooseSender(round, rt.sendPool)
			if j < 0 || j >= len(rt.sendPool) {
				j = 0
			}
		}
		rt.sendOrder = append(rt.sendOrder, rt.sendPool[j])
		rt.sendPool = append(rt.sendPool[:j], rt.sendPool[j+1:]...)
	}
	return rt.sendOrder
}

// deliverDelayed flushes interceptor-postponed copies scheduled for
// this round or earlier. Copies whose delivery round passed while the
// receiver slept (the scheduler never ran that round, or the receiver
// was not a participant) are lost, like any send to a sleeping node.
func (rt *runtime) deliverDelayed(round int64) error {
	for len(rt.delayed) > 0 && rt.delayed[0].round <= round {
		d := rt.delayed.pop()
		if d.round < round || !rt.awake(d.to, round) {
			rt.res.MessagesLost++
			if rt.sink != nil {
				rt.traceMsg(trace.KindLost, d.round, d.from, d.fromPort, d.to)
			}
			continue
		}
		if err := rt.route(round, d.seq, d.from, d.fromPort, d.to, d.rev, d.msg, -1); err != nil {
			return err
		}
	}
	return nil
}

// traceMsg reports one message event to the sink: node and port are
// the subject's, peer the other endpoint.
func (rt *runtime) traceMsg(kind trace.Kind, round int64, node, port, peer int) {
	rt.sink.Event(trace.Event{Kind: kind, Round: round, Node: int32(node), Port: int32(port), Peer: int32(peer)})
}

// deposit hands one message copy to an awake receiver, enforcing the
// bit cap on the receive side. bits is the size deliver measured for a
// payload nothing could replace since; a negative bits measures it
// again, so that a payload an interceptor replaced after the send-side
// check, a delayed copy or a wire-decoded copy still cannot smuggle an
// oversized message past CONGEST enforcement.
func (rt *runtime) deposit(round int64, from, fromPort, to, rev int, msg interface{}, bits int) error {
	if bits < 0 {
		bits = MessageBits(msg)
	}
	if rt.cfg.BitCap > 0 && bits > rt.cfg.BitCap {
		return fmt.Errorf("sim: node %d received %d-bit message in round %d sent by node %d on port %d, cap %d: %w (%w)",
			to, bits, round, from, fromPort, rt.cfg.BitCap, ErrBitCap, ErrAborted)
	}
	rt.res.MessagesDelivered++
	rt.res.BitsReceivedPerNode[to] += int64(bits)
	if rt.sink != nil {
		rt.traceMsg(trace.KindDeliver, round, to, rev, from)
	}
	if rt.tally != nil {
		rt.tally[tallyKeyOf(msg)]++
	}
	rt.inbox[rt.off[to]+rev] = msg
	rt.stamp[to] = -round
	return nil
}

// MessageBits returns the size charged to a message: its Bits() if it
// implements Sizer, DefaultMessageBits otherwise.
func MessageBits(msg interface{}) int {
	if s, ok := msg.(Sizer); ok {
		return s.Bits()
	}
	return DefaultMessageBits
}
