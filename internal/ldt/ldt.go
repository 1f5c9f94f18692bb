// Package ldt implements the paper's Labeled Distance Tree toolbox
// (§2.1 and Appendix B): the transmission schedule, fragment
// broadcast, convergecast, adjacent-fragment transmission, and the
// Merging-Fragments procedure.
//
// A Labeled Distance Tree (LDT) is a rooted tree fragment in which
// every node knows the fragment ID (the root's ID), its parent and
// child ports, and its hop distance from the root. Given that
// knowledge, each procedure below costs O(1) awake rounds per node and
// one or more "blocks" of 2n+1 simulated rounds, where n is the
// network size. All fragments of the network run the same block
// layout simultaneously; waves travel along tree ports only, so
// fragments never interfere.
package ldt

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// BlockLen returns the length in rounds of one transmission-schedule
// block for network size n: the paper's 2n+1.
func BlockLen(n int) int64 { return 2*int64(n) + 1 }

// Schedule holds the absolute rounds of the five named rounds of the
// paper's Transmission-Schedule for one node in one block. A value of
// -1 means the node has no such round (the root neither down-receives
// nor up-sends).
type Schedule struct {
	DownReceive int64
	DownSend    int64
	Side        int64
	UpReceive   int64
	UpSend      int64
}

// ScheduleFor computes the schedule for a node at the given distance
// from the root (level), in a block whose local round 1 is the
// absolute round start, on a network of n nodes.
//
// With start = 1 this reproduces the paper's numbering exactly:
// non-root nodes at distance i get rounds i, i+1, n+1, 2n-i+1, 2n-i+2
// (Down-Receive, Down-Send, Side-Send-Receive, Up-Receive, Up-Send)
// and the root gets 1, n+1, 2n+1 (Down-Send, Side, Up-Receive).
func ScheduleFor(start int64, level int, n int) Schedule {
	if level < 0 || level >= n {
		panic(fmt.Sprintf("ldt: level %d out of range for n=%d", level, n))
	}
	i, nn := int64(level), int64(n)
	if level == 0 {
		return Schedule{
			DownReceive: -1,
			DownSend:    start,
			Side:        start + nn,
			UpReceive:   start + 2*nn,
			UpSend:      -1,
		}
	}
	return Schedule{
		DownReceive: start + i - 1,
		DownSend:    start + i,
		Side:        start + nn,
		UpReceive:   start + 2*nn - i,
		UpSend:      start + 2*nn - i + 1,
	}
}

// State is the per-node LDT bookkeeping: which fragment the node
// belongs to and where it sits in the fragment tree.
type State struct {
	// FragID is the fragment identifier — the ID of the fragment root.
	FragID int64
	// Level is the hop distance from the fragment root.
	Level int
	// ParentPort is the port leading to the parent, -1 at the root.
	ParentPort int
	// Children lists the ports leading to children, sorted.
	Children []int

	// Memos of the node's own sends (see sim.Boxed), so a message
	// whose content did not change since its last send is not boxed
	// again: the Merging-Fragments advertisement and up wave (⊥ at
	// every node off the merge path), and the node's own Upcast-Min
	// item with the envelope that carries it.
	advert  sim.Boxed[taMergeMsg]
	upWave  sim.Boxed[waveMsg]
	ownItem sim.Boxed[MinItem]
	ownEnv  sim.Boxed[wireMsg]
}

// NewRootState returns the state of a singleton fragment rooted at a
// node with the given ID (the initial state of every node).
func NewRootState(id int64) *State {
	return &State{FragID: id, Level: 0, ParentPort: -1}
}

// IsRoot reports whether the node is its fragment's root.
func (st *State) IsRoot() bool { return st.ParentPort == -1 }

// AddChild inserts a child port, keeping Children sorted.
func (st *State) AddChild(port int) {
	i := sort.SearchInts(st.Children, port)
	if i < len(st.Children) && st.Children[i] == port {
		return
	}
	st.Children = append(st.Children, 0)
	copy(st.Children[i+1:], st.Children[i:])
	st.Children[i] = port
}

// TreePorts returns all tree ports (parent + children).
func (st *State) TreePorts() []int {
	out := make([]int, 0, len(st.Children)+1)
	if st.ParentPort >= 0 {
		out = append(out, st.ParentPort)
	}
	out = append(out, st.Children...)
	return out
}

// Clone returns a deep copy of the state.
func (st *State) Clone() *State {
	c := *st
	c.Children = append([]int(nil), st.Children...)
	return &c
}

// payload wrappers ------------------------------------------------------

// wireMsg wraps a user payload for the down/up waves; it charges a
// 2-bit tag on top of the payload size.
type wireMsg struct {
	payload interface{}
}

func (m wireMsg) Bits() int { return sim.MessageBits(m.payload) + 2 }

// emptyEnvelope is the one boxed empty envelope every node shares, so
// forwarding nothing up a wave allocates nothing.
var emptyEnvelope interface{} = wireMsg{}

// unwrap extracts the payload of a wave envelope taken from an inbox
// slot. ok is false when nothing arrived or the envelope is empty; a
// payload of another type than T panics like any protocol violation.
func unwrap[T any](raw interface{}) (v T, ok bool) {
	if raw == nil {
		return v, false
	}
	p := raw.(wireMsg).payload
	if p == nil {
		return v, false
	}
	return p.(T), true
}

// Down runs one top-down wave over the fragment tree within the block
// starting at round start. The root's incoming value is rootVal; every
// other node receives the value its parent forwarded to it (the zero
// value if the parent forwarded nothing). split sees the received value
// and calls send once per child port that gets a value; a node that
// sends nothing skips its Down-Send round. Down returns the received
// value.
//
// Cost: at most 2 awake rounds (Down-Receive and Down-Send).
func Down[T any](nd *sim.Node, st *State, start int64, rootVal T,
	split func(received T, send func(child int, v T))) T {
	sched := ScheduleFor(start, st.Level, nd.N())
	received := rootVal
	if !st.IsRoot() {
		nd.SleepUntil(sched.DownReceive)
		received, _ = unwrap[T](nd.Exchange(nil)[st.ParentPort])
	}
	var out sim.Outbox
	split(received, func(child int, v T) {
		if out == nil {
			out = nd.Outbox()
		}
		out[child] = wireMsg{payload: v}
	})
	if out != nil {
		nd.SleepUntil(sched.DownSend)
		nd.Exchange(out)
	}
	return received
}

// Broadcast implements the paper's Fragment-Broadcast: the root's msg
// reaches every node of the fragment; every node returns the message
// (the root returns its own). The root boxes the envelope once and
// every node forwards the envelope it received unchanged to all its
// children. Cost: one block, <= 2 awake rounds.
//
// A node whose parent forwarded nothing — possible only under faults —
// forwards nothing and panics: the fragment-wide value its caller
// needs never arrived.
func Broadcast[T any](nd *sim.Node, st *State, start int64, msg T) T {
	sched := ScheduleFor(start, st.Level, nd.N())
	var env interface{}
	if st.IsRoot() {
		env = wireMsg{payload: msg}
	} else {
		nd.SleepUntil(sched.DownReceive)
		env = nd.Exchange(nil)[st.ParentPort]
	}
	got, ok := unwrap[T](env)
	if !ok {
		panic(fmt.Sprintf("ldt: node %d: no broadcast value from its parent", nd.Index()))
	}
	if len(st.Children) > 0 {
		out := nd.Outbox()
		for _, c := range st.Children {
			out[c] = env
		}
		nd.SleepUntil(sched.DownSend)
		nd.Exchange(out)
	}
	return got
}

// Up runs one bottom-up wave (convergecast) within the block starting
// at round start. Each node folds the values its children sent into
// its own, in st.Children order — acc = fold(acc, child, v), starting
// from own; children that sent nothing or an empty envelope are
// skipped — and forwards the result to its parent; the root's result
// is the fragment-wide value. Up returns the node's folded value. An
// empty value (a nil interface) travels in the shared empty envelope.
//
// Cost: at most 2 awake rounds (Up-Receive for non-leaves, Up-Send for
// non-roots).
func Up[T any](nd *sim.Node, st *State, start int64, own T,
	fold func(acc T, child int, v T) T) T {
	sched := ScheduleFor(start, st.Level, nd.N())
	acc := own
	if len(st.Children) > 0 {
		nd.SleepUntil(sched.UpReceive)
		in := nd.Exchange(nil)
		for _, c := range st.Children {
			if v, ok := unwrap[T](in[c]); ok {
				acc = fold(acc, c, v)
			}
		}
	}
	if !st.IsRoot() {
		env := emptyEnvelope
		if p := interface{}(acc); p != nil {
			env = wireMsg{payload: p}
		}
		nd.SleepUntil(sched.UpSend)
		out := nd.Outbox()
		out[st.ParentPort] = env
		nd.Exchange(out)
	}
	return acc
}

// FieldBits returns the number of bits needed to encode x (sign
// included), used to charge realistic message sizes: one sign or
// presence bit plus the bit length of |x|. math.MinInt64, whose
// magnitude overflows, is charged 1 bit, as the per-bit loop this
// replaced charged it.
func FieldBits(x int64) int {
	if x == math.MinInt64 {
		return 1
	}
	if x < 0 {
		x = -x
	}
	return 1 + bits.Len64(uint64(x))
}

// MinItem is a (key, payload) pair for UpcastMin.
type MinItem struct {
	Key     graph.WeightKey
	Payload interface{}
}

// Bits charges the key fields plus the payload.
func (m MinItem) Bits() int {
	return FieldBits(m.Key.W) + FieldBits(m.Key.A) + FieldBits(m.Key.B) + sim.MessageBits(m.Payload)
}

// UpcastMin implements the paper's Upcast-Min: the minimum-key item
// held by any node of the fragment reaches the root. A node holding an
// item passes it with have set. Every node returns the minimum over
// its subtree and whether there is one; the root's is the
// fragment-wide minimum. It is one Up wave (same rounds, same
// messages) whose envelopes are reused: a subtree minimum travels in
// the envelope it arrived in, a subtree without an item sends the
// shared empty envelope, and only a node whose own item wins boxes a
// new one, and only when that item differs from the one it boxed
// last. Items are compared with ==, so a payload must be comparable.
func UpcastMin(nd *sim.Node, st *State, start int64, mine MinItem, have bool) (MinItem, bool) {
	sched := ScheduleFor(start, st.Level, nd.N())
	var in sim.Inbox
	if len(st.Children) > 0 {
		nd.SleepUntil(sched.UpReceive)
		in = nd.Exchange(nil)
	}
	env, best, ok := minEnvelope(in, st, mine, have)
	if !st.IsRoot() {
		nd.SleepUntil(sched.UpSend)
		out := nd.Outbox()
		out[st.ParentPort] = env
		nd.Exchange(out)
	}
	return best, ok
}

// minEnvelope folds the children's envelopes into the node's own item,
// in st.Children order, keeping the first of equal keys as Up's fold
// did, and returns the subtree minimum with the envelope that carries
// it on: the winning child's, unchanged; the node's own item in its
// memoized envelope; or the shared empty envelope. A child envelope
// whose payload is not a MinItem is skipped.
func minEnvelope(in sim.Inbox, st *State, mine MinItem, have bool) (env interface{}, best MinItem, ok bool) {
	best, ok = mine, have
	winner := -1
	for _, c := range st.Children {
		p, sent := unwrap[interface{}](in[c])
		if !sent {
			continue
		}
		if it, isItem := p.(MinItem); isItem && (!ok || it.Key.Less(best.Key)) {
			best, ok, winner = it, true, c
		}
	}
	switch {
	case winner >= 0:
		return in[winner], best, true
	case ok:
		return st.ownEnv.Of(wireMsg{payload: st.ownItem.Of(best)}), best, true
	default:
		return emptyEnvelope, best, false
	}
}

// TransmitAdjacent implements the paper's Transmit-Adjacent: every
// node is awake in the block's Side-Send-Receive round and exchanges
// the given per-port messages with all its neighbors (in this and
// other fragments). It returns the inbox. Cost: one block, exactly 1
// awake round.
func TransmitAdjacent(nd *sim.Node, start int64, out sim.Outbox) sim.Inbox {
	side := start + int64(nd.N())
	nd.SleepUntil(side)
	return nd.Exchange(out)
}
