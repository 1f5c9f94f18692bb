package sim

import (
	"fmt"
	"iter"
)

// The event engine: the goroutine-free scheduler core.
//
// Node programs still read as sequential Go code, but instead of one
// goroutine per node they run as coroutine continuations (iter.Pull)
// resumed and parked on the scheduler's own thread. A park is a direct
// continuation switch — no channel handshake, no runtime scheduler
// latency, no per-node stack held hot — which is what moves the
// per-awake-node-round cost from microseconds to ~100 ns and makes
// n = 10^5 routine and n = 10^6 reachable on one machine.
//
// Every park is processed in ascending node index, and every hook the
// order could reach is order-independent besides: the Interceptor
// contract requires coordinate-keyed randomness, the trace recorder
// writes per-node streams, and metrics are additive. The digest tables
// (testdata/scheduler_digests.json here, the root
// testdata/behaviour_digests.json for every registered problem) pin
// the engine's output byte for byte.

// nodeCoro is one node program suspended inside Exchange: next resumes
// the continuation (false when the program finished), stop unwinds it
// via the abort sentinel.
type nodeCoro struct {
	next func() (struct{}, bool)
	stop func()
}

// runEvent drives all node programs as coroutines on the calling
// goroutine.
func (rt *runtime) runEvent(prog Program) {
	n := len(rt.nodes)
	coros := make([]nodeCoro, n)
	for i := 0; i < n; i++ {
		nd := rt.nodes[i]
		seq := func(yield func(struct{}) bool) {
			nd.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortPanic); ok {
						return
					}
					nd.exitErr = fmt.Errorf("sim: node %d panicked: %v", nd.idx, r)
				}
			}()
			nd.exitErr = prog(nd)
		}
		coros[i].next, coros[i].stop = iter.Pull(seq)
	}
	e := &eventEngine{rt: rt, coros: coros, parked: make([]bool, n), live: n}
	e.run()
}

// eventEngine is the per-run scheduler state, struct-of-arrays style:
// the wake queue is the event queue, parked marks which indices hold a
// live continuation, live counts unfinished programs.
//
// The wake queue is two-tier. Nodes waking in the very next round —
// the dominant case in dense phases, where every participant of round
// r parks for r+1 — go into bucket, a plain slice that stays in
// ascending index order by construction. Only nodes sleeping further
// ahead pay the wake heap's O(log n) push/pop. A round's participants
// are the merge of the bucket with the heap's equal-round prefix, so
// the order is identical to the heap-only scheme (ascending index),
// just without the per-node-round heap traffic.
type eventEngine struct {
	rt     *runtime
	coros  []nodeCoro
	parked []bool
	wakes  wakeHeap
	live   int

	// bucket holds nodes waking exactly at bucketRound (the round
	// after the one last executed); its backing array is recycled
	// every round.
	bucket      []int
	bucketRound int64
}

// step resumes node idx and processes the outcome: either the program
// parked again inside Exchange (park bookkeeping) or it finished (exit
// bookkeeping). The resume is a direct continuation switch on this
// thread, so the park is processed synchronously, in the order the
// scheduler resumes nodes — ascending index.
func (e *eventEngine) step(idx int) {
	rt := e.rt
	nd := rt.nodes[idx]
	if _, parkedAgain := e.coros[idx].next(); !parkedAgain {
		e.live--
		if nd.exitErr != nil && rt.failed == nil {
			rt.failed = fmt.Errorf("node %d: %w", idx, nd.exitErr)
		}
		return
	}
	if ch := rt.cfg.Chooser; ch != nil {
		if w := ch.ChooseWake(idx, nd.wake); w > nd.wake {
			nd.wake = w
			nd.perturbed = true
			rt.res.WakesPerturbed++
		}
	}
	if itc := rt.cfg.Interceptor; itc != nil {
		if w := itc.InterceptWake(idx, nd.wake); w > nd.wake {
			nd.wake = w
			nd.perturbed = true
			rt.res.WakesPerturbed++
		}
		if cr := itc.CrashRound(idx); cr > 0 && nd.wake >= cr {
			// Crash-stop: unwind the continuation synchronously. The
			// program cannot exit with an error from an abort unwind, so
			// this cannot disturb first-error-wins ordering.
			rt.res.CrashRound[idx] = cr
			if rt.rec != nil {
				rt.rec.Crash(idx, cr)
			}
			nd.aborted = true
			e.coros[idx].stop()
			e.live--
			return
		}
	}
	if rt.rec != nil {
		// A real sleep gap: the node skips >= 1 round between its last
		// awake round (0 = never) and its next wake.
		if last := rt.res.HaltRound[idx]; nd.wake > last+1 {
			rt.rec.Sleep(idx, last, nd.wake)
		}
	}
	e.parked[idx] = true
	if nd.wake == e.bucketRound {
		// step runs over participants in ascending index order, so the
		// bucket stays sorted without ever comparing.
		e.bucket = append(e.bucket, idx)
	} else {
		e.wakes.push(wakeEntry{round: nd.wake, idx: idx})
	}
}

// run is the event loop. Invariant at the top of each iteration: every
// live node is parked inside Exchange with exactly one entry in the
// bucket or the wake heap.
func (e *eventEngine) run() {
	rt := e.rt
	// Round 0: start every program, in ascending index; each runs until
	// its first Exchange (or exit). Rounds start at 1, so the bucket
	// initially collects nodes whose first Exchange lands there (the
	// common case).
	e.bucketRound = 1
	for idx := range e.coros {
		e.step(idx)
	}
	var p []int // participants scratch, reused across rounds
	for {
		if rt.failed != nil {
			e.drain()
			return
		}
		if e.live == 0 {
			return
		}
		// Next busy round: minimum wake among parked nodes. Every heap
		// entry has round >= bucketRound (a smaller round would already
		// have been executed), so a non-empty bucket decides.
		var round int64
		if len(e.bucket) > 0 {
			round = e.bucketRound
		} else {
			round = e.wakes[0].round
		}
		if round > rt.cfg.MaxRounds {
			rt.failed = fmt.Errorf("sim: round %d exceeds cap %d: %w (%w)", round, rt.cfg.MaxRounds, ErrRoundCap, ErrAborted)
			e.drain()
			return
		}
		if rt.cfg.canceled() {
			rt.failed = fmt.Errorf("sim: run canceled at round %d: %w (%w)", round, ErrCanceled, ErrAborted)
			e.drain()
			return
		}
		// Participants of this round: merge the bucket (ascending by
		// construction) with the heap's equal-round prefix (heap pops
		// with equal rounds come out in increasing index order), so p
		// is sorted ascending — the order every downstream consumer
		// (deliver, accounting, resume) assumes.
		p = p[:0]
		bucket, bi := e.bucket, 0
		for len(e.wakes) > 0 && e.wakes[0].round == round {
			idx := e.wakes.pop().idx
			for bi < len(bucket) && bucket[bi] < idx {
				p = append(p, bucket[bi])
				bi++
			}
			p = append(p, idx)
		}
		p = append(p, bucket[bi:]...)
		e.bucket = e.bucket[:0]
		e.bucketRound = round + 1
		if err := rt.deliver(round, p); err != nil {
			rt.failed = err
			e.drain()
			return
		}
		rt.res.BusyRounds++
		if round > rt.res.Rounds {
			rt.res.Rounds = round
		}
		// Account for ALL participants before resuming any: a resumed
		// program observes (via AwakeCount, Round) a world in which the
		// whole round completed, and a budget failure is charged to the
		// lowest-index violator of the round regardless of resume order.
		for _, idx := range p {
			nd := rt.nodes[idx]
			nd.awake++
			rt.res.AwakePerNode[idx]++
			if rt.rec != nil {
				rt.rec.Awake(round, idx)
			}
			if rt.cfg.AwakeBudget > 0 && nd.awake > rt.cfg.AwakeBudget && rt.failed == nil {
				rt.failed = fmt.Errorf("sim: node %d exceeded awake budget %d in round %d: %w (%w)",
					idx, rt.cfg.AwakeBudget, round, ErrAwakeBudget, ErrAborted)
			}
			rt.res.HaltRound[idx] = round
			if rt.cfg.RecordAwakeRounds {
				rt.res.AwakeRounds[idx] = append(rt.res.AwakeRounds[idx], round)
			}
			nd.wake = round + 1
			e.parked[idx] = false
		}
		// Resume the round's participants. Even after a budget failure
		// every participant still runs to its next park and has that
		// park fully processed (InterceptWake, sleep records, heap
		// push); the drain at the top of the next iteration then
		// unwinds everyone.
		for _, idx := range p {
			e.step(idx)
		}
	}
}

// drain unwinds every parked continuation via the abort sentinel.
func (e *eventEngine) drain() {
	for idx, isParked := range e.parked {
		if !isParked {
			continue
		}
		nd := e.rt.nodes[idx]
		nd.aborted = true
		e.parked[idx] = false
		e.coros[idx].stop()
	}
}
