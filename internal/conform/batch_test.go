package conform

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sleepmst/internal/trace"
)

// The batch checker below is the catalog as it ran before the
// streaming Fold: it folds the whole slice, then walks each node's
// fragment events, then each equal-round run. It stays as the
// reference the Fold must agree with on every trace.

// fold is the single-pass aggregation of a trace the checks run over.
type batchFold struct {
	n int

	awakeCharged []int64 // KindAwake events per node
	stepSum      []int64 // KindStep Aux per node
	crashed      []bool

	phases    []int32                   // distinct phases, ascending
	phaseFrag map[int32]map[int32]int64 // phase -> node -> entry fragment
	nodeFrag  [][]trace.Event           // per node: phase + merge events, stream order
	nbrs      []trace.Event
	haveSteps bool
}

// batchCheckTrace is the reference catalog.
func batchCheckTrace(meta trace.Meta, events []trace.Event, info RunInfo) *Verdict {
	n := info.N
	if n == 0 {
		n = meta.N
	}
	v := &Verdict{Schema: VerdictSchema, Algo: info.Algorithm, N: n, Seed: info.Seed, Relaxed: info.Relaxed, Pass: true}

	wf := batchWellFormed(meta, events, n)
	v.Append(wf)
	if wf.Status == StatusFail {
		for _, name := range []string{CheckAwakeBudget, CheckAwakeAttribution, CheckMergeConsistency,
			CheckMergeDirection, CheckFragmentDecay, CheckSparsifyDegree, CheckCausality, CheckDeliverAwake} {
			v.Append(Check{Name: name, Status: StatusSkip, Detail: "trace not well-formed"})
		}
		return v
	}

	f := batchFoldEvents(n, events)
	h := batchWalkFragments(f)
	v.Append(batchAwakeBudget(f, info, n))
	v.Append(batchAwakeAttribution(f, meta, info))
	consistency, direction := batchMerges(h, meta)
	v.Append(consistency)
	v.Append(direction)
	v.Append(batchFragmentDecay(f, h, meta))
	v.Append(batchSparsifyDegree(f))
	v.Append(batchCausality(events, meta, info))
	v.Append(batchDeliverAwake(events, n, meta))
	return v
}

// batchWellFormed validates event coordinates and canonical round
// ordering; every other check assumes it passed.
func batchWellFormed(meta trace.Meta, events []trace.Event, n int) Check {
	c := Check{Name: CheckWellFormed, Status: StatusPass}
	if n <= 0 {
		return fail(c, fmt.Sprintf("non-positive node count %d", n))
	}
	prevRound := int64(-1)
	for i, ev := range events {
		bad := ""
		switch {
		case ev.Kind > trace.KindNbrs:
			bad = fmt.Sprintf("unknown kind %d", ev.Kind)
		case ev.Round < 0:
			bad = fmt.Sprintf("negative round %d", ev.Round)
		case ev.Node < 0 || int(ev.Node) >= n:
			bad = fmt.Sprintf("node %d outside [0,%d)", ev.Node, n)
		case (ev.Kind == trace.KindPhase || ev.Kind == trace.KindStep || ev.Kind == trace.KindNbrs) && ev.Phase < 1:
			bad = fmt.Sprintf("non-positive phase %d", ev.Phase)
		case ev.Kind == trace.KindStep && int(ev.Step) > len(trace.Steps):
			bad = fmt.Sprintf("unknown step %d", ev.Step)
		case (ev.Kind == trace.KindStep || ev.Kind == trace.KindNbrs) && ev.Aux < 0:
			bad = fmt.Sprintf("negative aux %d", ev.Aux)
		case (ev.Kind == trace.KindSend || ev.Kind == trace.KindDeliver || ev.Kind == trace.KindLost) &&
			(ev.Peer < 0 || int(ev.Peer) >= n || ev.Port < 0):
			bad = fmt.Sprintf("peer %d / port %d out of range", ev.Peer, ev.Port)
		case ev.Round < prevRound:
			bad = fmt.Sprintf("round %d after round %d breaks canonical order", ev.Round, prevRound)
		}
		if bad != "" {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("event %d (%s): %s", i, ev, bad)
			}
		}
		prevRound = ev.Round
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// batchFoldEvents aggregates the stream into the per-check indexes.
func batchFoldEvents(n int, events []trace.Event) *batchFold {
	f := &batchFold{
		n:            n,
		awakeCharged: make([]int64, n),
		stepSum:      make([]int64, n),
		crashed:      make([]bool, n),
		phaseFrag:    map[int32]map[int32]int64{},
		nodeFrag:     make([][]trace.Event, n),
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindAwake:
			f.awakeCharged[ev.Node]++
		case trace.KindStep:
			f.stepSum[ev.Node] += ev.Aux
			f.haveSteps = true
		case trace.KindCrash:
			f.crashed[ev.Node] = true
		case trace.KindPhase:
			m, ok := f.phaseFrag[ev.Phase]
			if !ok {
				m = map[int32]int64{}
				f.phaseFrag[ev.Phase] = m
				f.phases = append(f.phases, ev.Phase)
			}
			m[ev.Node] = ev.Frag
			f.nodeFrag[ev.Node] = append(f.nodeFrag[ev.Node], ev)
		case trace.KindMerge:
			f.nodeFrag[ev.Node] = append(f.nodeFrag[ev.Node], ev)
		case trace.KindNbrs:
			f.nbrs = append(f.nbrs, ev)
		}
	}
	sort.Slice(f.phases, func(i, j int) bool { return f.phases[i] < f.phases[j] })
	return f
}

// batchAwakeBudget compares each node's awake rounds against the
// algorithm's Table 1 envelope.
func batchAwakeBudget(f *batchFold, info RunInfo, n int) Check {
	c := Check{Name: CheckAwakeBudget, Status: StatusPass}
	var budget int64
	var ok bool
	if info.Budget != nil {
		budget, ok = info.Budget(n)
	} else {
		budget, ok = AwakeBudget(info.Algorithm, n)
	}
	if !ok {
		return skip(c, fmt.Sprintf("no awake envelope for algorithm %q", info.Algorithm))
	}
	slack := info.BudgetSlack
	if slack <= 0 {
		slack = 1
	}
	limit := int64(float64(budget) * slack)
	for node := 0; node < f.n; node++ {
		awake := f.awakeCharged[node]
		if f.stepSum[node] > awake {
			awake = f.stepSum[node] // ring overflow can undercount charges
		}
		if awake > limit {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d awake %d > budget %d (=%d×%.2g slack)", node, awake, limit, budget, slack)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	} else {
		c.Detail = fmt.Sprintf("max awake within budget %d", limit)
	}
	return c
}

// batchAwakeAttribution verifies the attributed==charged identity: per
// node, the step-attributed awake rounds equal the scheduler-charged
// awake events. Crashed nodes die mid-step, so they are excluded.
func batchAwakeAttribution(f *batchFold, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckAwakeAttribution, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped from the trace", meta.Dropped))
	}
	if !f.haveSteps {
		return skip(c, "trace has no step events")
	}
	for node := 0; node < f.n; node++ {
		if f.crashed[node] {
			continue
		}
		if f.stepSum[node] != f.awakeCharged[node] {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d: %d attributed != %d charged", node, f.stepSum[node], f.awakeCharged[node])
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// batchHistory is the result of replaying every node's fragment-label
// events in logical emission order.
type batchHistory struct {
	mergesByPhase map[int32][]trace.Event
	finalFrag     map[int32]int64
	violations    int64
	firstDetail   string
}

// batchWalkFragments replays phase-entry and merge events per node. The
// canonical trace order sorts a phase's closing merge AFTER the next
// phase's entry event (both are stamped with the same wake round, and
// KindPhase ranks below KindMerge), so the walk restores the logical
// order — merges before phase entries at equal rounds — then checks
// label continuity and attributes each merge to the phase the node was
// still in.
func batchWalkFragments(f *batchFold) *batchHistory {
	h := &batchHistory{mergesByPhase: map[int32][]trace.Event{}, finalFrag: make(map[int32]int64, f.n)}
	note := func(format string, args ...interface{}) {
		h.violations++
		if h.firstDetail == "" {
			h.firstDetail = fmt.Sprintf(format, args...)
		}
	}
	for node := range f.nodeFrag {
		evs := append([]trace.Event(nil), f.nodeFrag[node]...)
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Round != evs[j].Round {
				return evs[i].Round < evs[j].Round
			}
			return evs[i].Kind == trace.KindMerge && evs[j].Kind == trace.KindPhase
		})
		curPhase := int32(0)
		curFrag, known := int64(0), false
		mergedInPhase := false
		for _, ev := range evs {
			if ev.Kind == trace.KindPhase {
				if known && curFrag != ev.Frag {
					note("node %d enters phase %d as fragment %d, was %d", node, ev.Phase, ev.Frag, curFrag)
				}
				curPhase, curFrag, known = ev.Phase, ev.Frag, true
				mergedInPhase = false
				continue
			}
			if mergedInPhase {
				note("node %d merges twice in phase %d", node, curPhase)
			}
			mergedInPhase = true
			if ev.Prev == ev.Frag {
				note("node %d: self-merge of fragment %d in phase %d", node, ev.Frag, curPhase)
			}
			if known && curFrag != ev.Prev {
				note("node %d merges from fragment %d but was in %d (phase %d)", node, ev.Prev, curFrag, curPhase)
			}
			curFrag, known = ev.Frag, true
			h.mergesByPhase[curPhase] = append(h.mergesByPhase[curPhase], ev)
		}
		if known {
			h.finalFrag[int32(node)] = curFrag
		}
	}
	return h
}

// batchMerges verifies per-phase merge structure: label continuity and
// at most one merge per node (consistency), and the tails-into-heads
// direction (no fragment is both source and target of one phase's
// waves) that keeps the merge supergraph single-hop.
func batchMerges(h *batchHistory, meta trace.Meta) (consistency, direction Check) {
	consistency = Check{Name: CheckMergeConsistency, Status: StatusPass}
	direction = Check{Name: CheckMergeDirection, Status: StatusPass}
	if meta.Dropped > 0 {
		reason := fmt.Sprintf("%d events dropped from the trace", meta.Dropped)
		return skip(consistency, reason), skip(direction, reason)
	}
	consistency.Violations = h.violations
	consistency.Detail = h.firstDetail
	if consistency.Violations > 0 {
		consistency.Status = StatusFail
	}
	phases := make([]int32, 0, len(h.mergesByPhase))
	for ph := range h.mergesByPhase {
		phases = append(phases, ph)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for _, ph := range phases {
		srcs, dsts := map[int64]bool{}, map[int64]bool{}
		var chained []int64
		for _, ev := range h.mergesByPhase[ph] {
			srcs[ev.Prev] = true
			dsts[ev.Frag] = true
		}
		for frag := range dsts {
			if srcs[frag] {
				chained = append(chained, frag)
			}
		}
		sort.Slice(chained, func(i, j int) bool { return chained[i] < chained[j] })
		for _, frag := range chained {
			direction.Violations++
			if direction.Detail == "" {
				direction.Detail = fmt.Sprintf("fragment %d is both merge source and target in phase %d", frag, ph)
			}
		}
	}
	if direction.Violations > 0 {
		direction.Status = StatusFail
	}
	return consistency, direction
}

// batchFragmentDecay verifies the Lemma 1 / Lemma 5 shape: the number
// of distinct fragments never grows across phases, and the run ends
// with every (non-crashed) node in one fragment.
func batchFragmentDecay(f *batchFold, h *batchHistory, meta trace.Meta) Check {
	c := Check{Name: CheckFragmentDecay, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped from the trace", meta.Dropped))
	}
	if len(f.phases) == 0 {
		return skip(c, "trace has no phase events")
	}
	prevCount := -1
	for _, ph := range f.phases {
		distinct := map[int64]bool{}
		for _, frag := range f.phaseFrag[ph] {
			distinct[frag] = true
		}
		if prevCount >= 0 && len(distinct) > prevCount {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("phase %d has %d fragments, up from %d", ph, len(distinct), prevCount)
			}
		}
		prevCount = len(distinct)
	}
	final := map[int64]bool{}
	for node, frag := range h.finalFrag {
		if f.crashed[node] {
			continue
		}
		final[frag] = true
	}
	if len(final) != 1 {
		c.Violations++
		if c.Detail == "" {
			c.Detail = fmt.Sprintf("run ends with %d fragments, want 1", len(final))
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// batchSparsifyDegree verifies every recorded supergraph degree stays
// within SupergraphDegreeBound.
func batchSparsifyDegree(f *batchFold) Check {
	c := Check{Name: CheckSparsifyDegree, Status: StatusPass}
	if len(f.nbrs) == 0 {
		return skip(c, "trace has no nbrs events")
	}
	for _, ev := range f.nbrs {
		if ev.Aux > SupergraphDegreeBound {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d reports supergraph degree %d > %d (phase %d)", ev.Node, ev.Aux, SupergraphDegreeBound, ev.Phase)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	} else {
		c.Detail = fmt.Sprintf("%d degree reports ≤ %d", len(f.nbrs), SupergraphDegreeBound)
	}
	return c
}

// batchRoundEnd returns the end of the equal-round run of events starting
// at lo. A well-formed stream is sorted by round, so each round's
// events form one run; their order inside it is not relied on.
func batchRoundEnd(events []trace.Event, lo int) int {
	hi := lo + 1
	for hi < len(events) && events[hi].Round == events[lo].Round {
		hi++
	}
	return hi
}

// batchCausality verifies every delivery has a matching send: in the
// same round (clean model), or in any earlier-or-equal round when
// Relaxed (interceptor delays and duplicate copies arrive late).
func batchCausality(events []trace.Event, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckCausality, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped from the trace", meta.Dropped))
	}
	if info.Relaxed {
		// Rounds ascend, so a pair's first send has its earliest round.
		firstSend := map[pairKey]int64{}
		for _, ev := range events {
			if ev.Kind != trace.KindSend {
				continue
			}
			pair := pairKey{ev.Node, ev.Peer}
			if _, seen := firstSend[pair]; !seen {
				firstSend[pair] = ev.Round
			}
		}
		for i, ev := range events {
			if ev.Kind != trace.KindDeliver {
				continue
			}
			if sent, ok := firstSend[pairKey{ev.Peer, ev.Node}]; !ok || sent > ev.Round {
				c.Violations++
				if c.Detail == "" {
					// The event index localises the violation in the
					// canonical stream (tracediff's coordinate system).
					c.Detail = fmt.Sprintf("event %d: deliver %d->%d at round %d precedes every send",
						i, ev.Peer, ev.Node, ev.Round)
				}
			}
		}
	} else {
		// Per round, sort the (from, to) key of every send (low bit 0)
		// and delivery (low bit 1): each pair's sends and deliveries
		// become one run, and rounds ascending with keys in (from, to)
		// order visits excess deliveries in a deterministic order, so
		// the first one reported does not depend on the order of
		// events inside a round.
		var keys []uint64
		for lo := 0; lo < len(events); {
			hi := batchRoundEnd(events, lo)
			keys = keys[:0]
			for _, ev := range events[lo:hi] {
				switch ev.Kind {
				case trace.KindSend:
					keys = append(keys, pairBits(ev.Node, ev.Peer))
				case trace.KindDeliver:
					keys = append(keys, pairBits(ev.Peer, ev.Node)|1)
				}
			}
			slices.Sort(keys)
			for i := 0; i < len(keys); {
				pair := keys[i] >> 1
				var sends, delivers int64
				for ; i < len(keys) && keys[i]>>1 == pair; i++ {
					if keys[i]&1 == 0 {
						sends++
					} else {
						delivers++
					}
				}
				if delivers <= sends {
					continue
				}
				c.Violations += delivers - sends
				if c.Detail == "" {
					c.Detail = fmt.Sprintf("round %d: %d deliveries %d->%d but %d sends",
						events[lo].Round, delivers, pair>>32, pair&math.MaxUint32, sends)
				}
			}
			lo = hi
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// batchDeliverAwake verifies no delivery reached a node that was not
// awake (and charged) in the delivery round.
func batchDeliverAwake(events []trace.Event, n int, meta trace.Meta) Check {
	c := Check{Name: CheckDeliverAwake, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped from the trace", meta.Dropped))
	}
	// awakeIn[v] is 1 + the start of the last round run with an awake
	// event for v, so stamps from earlier rounds never match.
	awakeIn := make([]int, n)
	for lo := 0; lo < len(events); {
		hi := batchRoundEnd(events, lo)
		for _, ev := range events[lo:hi] {
			if ev.Kind == trace.KindAwake {
				awakeIn[ev.Node] = lo + 1
			}
		}
		for _, ev := range events[lo:hi] {
			if ev.Kind == trace.KindDeliver && awakeIn[ev.Node] != lo+1 {
				c.Violations++
				if c.Detail == "" {
					c.Detail = fmt.Sprintf("node %d received from %d in round %d while asleep", ev.Node, ev.Peer, ev.Round)
				}
			}
		}
		lo = hi
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}
