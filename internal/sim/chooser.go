package sim

// Chooser is the model-checking branch-point hook: a decision surface
// the bounded state-space explorer (internal/modelcheck) implements to
// drive the runtime through every admissible nondeterminism branch.
// Where Interceptor perturbs runs with seeded faults, a Chooser
// *selects* among admissible alternatives at three decision points —
// wake scheduling, within-round message-routing order, and per-message
// single-fault injection. A nil Config.Chooser keeps today's fixed
// choices and costs nothing on the hot path; a Chooser whose methods
// always return the fixed choice (intended wake, index 0, no fault)
// reproduces the production run bit-identically.
//
// Determinism contract: with a Chooser configured the scheduler calls
// the methods in a total order that is a deterministic function of the
// run inputs (graph, seed, program) and the choices returned so far —
// wake choices in ascending node-index order within each scheduling
// batch, sender choices in routing order within each round, fault
// choices per staged message in (sender, port) order. Sequence-indexed
// replay (re-running a recorded choice prefix) is therefore sound,
// unlike for Interceptor implementations, which must key their
// randomness on event coordinates. All methods are called from the
// scheduler goroutine only, never concurrently.
type Chooser interface {
	// ChooseWake is called when a node parks with the round it intends
	// to be awake in next; the return value replaces that round.
	// Returns < intended are clamped to intended (the adversary can
	// oversleep a node, never wake it early). The fixed choice is
	// intended itself.
	ChooseWake(node int, intended int64) int64
	// ChooseSender selects which of the remaining staged outboxes to
	// route next in the given round: remaining lists the senders not
	// yet routed, in ascending node-index order at the first call, and
	// the return value is an index into remaining (out-of-range values
	// are clamped to 0). Called only when two or more participants
	// staged messages; composing the picks yields any routing
	// permutation. The slice is owned by the runtime and must not be
	// retained. The fixed choice is 0 (ascending index order).
	ChooseSender(round int64, remaining []int) int
	// ChooseFault is called once per staged message, after the send is
	// metered and before any Interceptor verdict, and may drop it
	// (metered like an interceptor drop: dropped + lost). The fixed
	// choice is false (deliver).
	ChooseFault(round int64, from, port, to int) bool
}

// FixedChooser is the identity Chooser: every method returns the
// production choice, so a run configured with it is bit-identical to a
// run with a nil Chooser (useful as the determinism control in tests).
type FixedChooser struct{}

// ChooseWake returns the intended wake round unchanged.
func (FixedChooser) ChooseWake(node int, intended int64) int64 { return intended }

// ChooseSender returns 0: route the lowest-index remaining sender.
func (FixedChooser) ChooseSender(round int64, remaining []int) int { return 0 }

// ChooseFault returns false: deliver the message.
func (FixedChooser) ChooseFault(round int64, from, port, to int) bool { return false }

// chooseSendOrder returns the order in which the round's staged
// outboxes are routed, as selected by the configured Chooser:
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
			j = rt.cfg.Chooser.ChooseSender(round, rt.sendPool)
			if j < 0 || j >= len(rt.sendPool) {
				j = 0
			}
		}
		rt.sendOrder = append(rt.sendOrder, rt.sendPool[j])
		rt.sendPool = append(rt.sendPool[:j], rt.sendPool[j+1:]...)
	}
	return rt.sendOrder
}
