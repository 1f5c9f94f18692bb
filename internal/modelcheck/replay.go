package modelcheck

import (
	"fmt"

	"sleepmst/internal/sim"
)

// Choice-point kinds, one per hook method the replayer branches in.
const (
	kindWake  = byte('w') // oversleep a parking node by 0..Oversleep rounds
	kindSend  = byte('s') // pick the next sender among the round's staged pool
	kindFault = byte('f') // drop or deliver one staged message
)

// choicePoint is one logged branch point: its kind, its arity, and
// the alternative taken (0 is always the production choice).
type choicePoint struct {
	kind  byte
	k     int
	taken int
}

// replayer is the sim.Interceptor that makes stateless exploration
// possible: node program state cannot be snapshotted, so the
// explorer re-executes the system from scratch, replaying a recorded
// choice prefix positionally and taking the production default
// beyond it, while logging every choice point the execution passes.
// Positional (sequence-indexed) replay is sound because the
// simulator guarantees a total order of hook calls that is a
// deterministic function of (graph, seed, program, prior choices) —
// see the sim.Interceptor contract. It has the optional ChooseSender,
// so the routing order within a round is a choice point too.
type replayer struct {
	prefix    []int
	oversleep int // wake-point span; <= 0 removes wake points entirely
	faults    bool

	log      []choicePoint
	pos      int
	mismatch error
}

// next consumes one choice point of arity k and returns the replayed
// or default alternative. A prefix alternative outside [0, k) means
// the execution diverged from the run that recorded it — a broken
// determinism contract, reported as a hard error, never explored.
func (r *replayer) next(kind byte, k int) int {
	taken := 0
	if r.pos < len(r.prefix) {
		taken = r.prefix[r.pos]
		if taken < 0 || taken >= k {
			if r.mismatch == nil {
				r.mismatch = fmt.Errorf("choice %d: prefix alternative %d out of range for %c-point of arity %d", r.pos, taken, kind, k)
			}
			taken = 0
		}
	}
	r.log = append(r.log, choicePoint{kind: kind, k: k, taken: taken})
	r.pos++
	return taken
}

// takens returns the complete schedule this execution followed.
func (r *replayer) takens() []int {
	out := make([]int, len(r.log))
	for i, cp := range r.log {
		out[i] = cp.taken
	}
	return out
}

// The hook methods: InterceptWake is the oversleep choice point,
// ChooseSender the routing-order one and InterceptMessage the drop
// one. A replayer serves one run, and the explorer has no crash branch.
func (r *replayer) BeginRun(n int)            {}
func (r *replayer) CrashRound(node int) int64 { return 0 }

func (r *replayer) InterceptWake(node int, intended int64) int64 {
	if r.oversleep <= 0 {
		return intended
	}
	return intended + int64(r.next(kindWake, 1+r.oversleep))
}

func (r *replayer) ChooseSender(round int64, remaining []int) int {
	return r.next(kindSend, len(remaining))
}

func (r *replayer) InterceptMessage(ev *sim.MessageEvent) {
	if r.faults {
		ev.Drop = r.next(kindFault, 2) == 1
	}
}
