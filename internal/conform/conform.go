// Package conform is a trace-replay invariant checker for the
// sleeping-model simulator: it consumes a structured event trace (a
// trace.Recorder's events or a stream parsed by trace.ReadJSONL) and
// verifies the paper's guarantees held on that run — per-node awake
// budgets within the Table 1 envelopes, exact attribution of awake
// rounds to phase steps, single-hop tails-into-heads merge waves,
// degree-≤4 supergraph sparsification, and message causality. The
// result is a Verdict: one pass/fail/skip entry per invariant, with a
// machine-readable JSON form consumed by `mstbench -exp conform` and a
// Suite helper for asserting the catalog inside tests.
//
// The checker is trace-only by design: it imports nothing above
// internal/trace, so algorithm packages and their tests can use it
// without import cycles. MST-weight agreement needs the graph and is
// therefore appended by callers via WeightCheck.
package conform

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"sleepmst/internal/trace"
)

// Check statuses.
const (
	// StatusPass marks an invariant that held everywhere it applied.
	StatusPass = "pass"
	// StatusFail marks an invariant with at least one violation.
	StatusFail = "fail"
	// StatusSkip marks an invariant that could not be evaluated on
	// this trace (reason in Detail); skips never fail a verdict.
	StatusSkip = "skip"
)

// Invariant names, in catalog (and verdict) order.
const (
	// CheckWellFormed: event coordinates are in range and rounds are
	// non-decreasing; failing it skips every downstream check.
	CheckWellFormed = "trace-wellformed"
	// CheckAwakeBudget: every node's awake rounds stay within the
	// algorithm's Table 1 envelope (see AwakeBudget).
	CheckAwakeBudget = "awake-budget"
	// CheckAwakeAttribution: per node, awake rounds attributed to phase
	// steps equal the scheduler-charged awake rounds.
	CheckAwakeAttribution = "awake-attribution"
	// CheckMergeConsistency: fragment labels evolve consistently — one
	// merge per node per phase, matching phase-entry fragments.
	CheckMergeConsistency = "merge-consistency"
	// CheckMergeDirection: merge waves run tails-into-heads only — no
	// fragment is both a merge source and a merge target in one phase.
	CheckMergeDirection = "merge-tails-into-heads"
	// CheckFragmentDecay: distinct-fragment counts never increase
	// across phases and the run ends in a single fragment.
	CheckFragmentDecay = "fragment-decay"
	// CheckSparsifyDegree: every recorded supergraph degree is at most
	// SupergraphDegreeBound.
	CheckSparsifyDegree = "sparsify-degree"
	// CheckCausality: no message is delivered before (strict: in a
	// different round than) its send.
	CheckCausality = "causality"
	// CheckDeliverAwake: no message is delivered to a sleeping node.
	CheckDeliverAwake = "deliver-awake"
	// CheckMSTWeight: the computed tree weight matches the Kruskal
	// reference (appended by callers via WeightCheck).
	CheckMSTWeight = "mst-weight"
	// CheckMISValid: the computed node set is independent and maximal
	// (appended by callers via MISCheck).
	CheckMISValid = "mis-valid"
)

// VerdictSchema is the version stamp of the verdict JSON shape.
const VerdictSchema = 1

// RunInfo carries the run context the trace alone cannot provide.
type RunInfo struct {
	// Algorithm is the CLI spelling of the algorithm that produced the
	// trace ("" = unknown; budget and attribution checks are skipped).
	Algorithm string
	// N overrides the node count (0 = take it from the trace meta).
	N int
	// Seed is recorded in the verdict for provenance only.
	Seed int64
	// BudgetSlack multiplies the awake budget (0 = 1.0). Chaos runs
	// use >1: injected faults may legitimately cost extra awake
	// rounds.
	BudgetSlack float64
	// Budget, when non-nil, supplies the per-node awake envelope for
	// node count n, overriding the built-in MST catalog. Problems
	// outside the MST suite (e.g. MIS) provide their envelope here;
	// returning ok=false skips the budget check.
	Budget func(n int) (int64, bool)
	// Relaxed loosens the checks for fault-injected traces: delivery
	// may lag its send (delays, duplicate copies) and crashed nodes
	// are excluded from attribution and decay accounting.
	Relaxed bool
}

// Check is one invariant's outcome.
type Check struct {
	// Name is the invariant's catalog name.
	Name string `json:"name"`
	// Status is pass, fail, or skip.
	Status string `json:"status"`
	// Violations counts individual violations behind a fail.
	Violations int64 `json:"violations"`
	// Detail describes the first violation or the skip reason.
	Detail string `json:"detail,omitempty"`
}

// Verdict is the result of checking one trace: the full invariant
// catalog plus run provenance.
type Verdict struct {
	// Schema is VerdictSchema.
	Schema int `json:"schema"`
	// Algo is the algorithm name from RunInfo ("" if unknown).
	Algo string `json:"algo"`
	// N is the node count of the checked run.
	N int `json:"n"`
	// Seed is the run seed from RunInfo.
	Seed int64 `json:"seed"`
	// Relaxed records whether chaos-mode relaxations were applied.
	Relaxed bool `json:"relaxed"`
	// Pass is true when no check failed (skips do not fail).
	Pass bool `json:"pass"`
	// Checks is the invariant catalog in canonical order.
	Checks []Check `json:"checks"`
}

// Append adds a check to the verdict and updates Pass.
func (v *Verdict) Append(c Check) {
	v.Checks = append(v.Checks, c)
	if c.Status == StatusFail {
		v.Pass = false
	}
}

// Failures returns the failed checks, in catalog order.
func (v *Verdict) Failures() []Check {
	var out []Check
	for _, c := range v.Checks {
		if c.Status == StatusFail {
			out = append(out, c)
		}
	}
	return out
}

// Lookup returns the named check, or nil if the verdict has none.
func (v *Verdict) Lookup(name string) *Check {
	for i := range v.Checks {
		if v.Checks[i].Name == name {
			return &v.Checks[i]
		}
	}
	return nil
}

// WriteJSON writes the verdict as indented JSON.
func (v *Verdict) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// String renders a one-line-per-check human summary.
func (v *Verdict) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !v.Pass {
		verdict = "FAIL"
	}
	algo := v.Algo
	if algo == "" {
		algo = "?"
	}
	fmt.Fprintf(&b, "conformance %s  algo=%s n=%d seed=%d relaxed=%v\n", verdict, algo, v.N, v.Seed, v.Relaxed)
	for _, c := range v.Checks {
		fmt.Fprintf(&b, "  %-22s %-4s", c.Name, c.Status)
		if c.Violations > 0 {
			fmt.Fprintf(&b, " violations=%d", c.Violations)
		}
		if c.Detail != "" {
			fmt.Fprintf(&b, "  (%s)", c.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WeightCheck builds the MST-weight agreement check from the computed
// tree weight and the Kruskal reference weight.
func WeightCheck(got, want int64) Check {
	if got != want {
		return Check{Name: CheckMSTWeight, Status: StatusFail, Violations: 1,
			Detail: fmt.Sprintf("tree weight %d != reference %d", got, want)}
	}
	return Check{Name: CheckMSTWeight, Status: StatusPass}
}

// MISCheck builds the MIS-validity check from violation counts (see
// graph.MISViolations): edges inside the set break independence,
// uncovered nodes break maximality.
func MISCheck(notIndependent, notMaximal int64) Check {
	if notIndependent > 0 || notMaximal > 0 {
		return Check{Name: CheckMISValid, Status: StatusFail, Violations: notIndependent + notMaximal,
			Detail: fmt.Sprintf("%d in-set edges, %d uncovered nodes", notIndependent, notMaximal)}
	}
	return Check{Name: CheckMISValid, Status: StatusPass}
}

// fold is the single-pass aggregation of a trace the checks run over.
type fold struct {
	n int

	awakeCharged []int64 // KindAwake events per node
	stepSum      []int64 // KindStep Aux per node
	crashed      []bool
	anyCrash     bool

	phases    []int32                   // distinct phases, ascending
	phaseFrag map[int32]map[int32]int64 // phase -> node -> entry fragment
	nodeFrag  [][]trace.Event           // per node: phase + merge events, stream order
	nbrs      []trace.Event
	haveSteps bool
}

// CheckTrace runs the invariant catalog over one trace and returns the
// verdict. meta and events come from trace.ReadJSONL or from a live
// Recorder (Meta()/Events()); info supplies the run context.
func CheckTrace(meta trace.Meta, events []trace.Event, info RunInfo) *Verdict {
	n := info.N
	if n == 0 {
		n = meta.N
	}
	v := &Verdict{Schema: VerdictSchema, Algo: info.Algorithm, N: n, Seed: info.Seed, Relaxed: info.Relaxed, Pass: true}

	wf := checkWellFormed(meta, events, n)
	v.Append(wf)
	if wf.Status == StatusFail {
		for _, name := range []string{CheckAwakeBudget, CheckAwakeAttribution, CheckMergeConsistency,
			CheckMergeDirection, CheckFragmentDecay, CheckSparsifyDegree, CheckCausality, CheckDeliverAwake} {
			v.Append(Check{Name: name, Status: StatusSkip, Detail: "trace not well-formed"})
		}
		return v
	}

	f := foldEvents(n, events)
	h := walkFragments(f)
	v.Append(checkAwakeBudget(f, info, n))
	v.Append(checkAwakeAttribution(f, meta, info))
	consistency, direction := checkMerges(h, meta)
	v.Append(consistency)
	v.Append(direction)
	v.Append(checkFragmentDecay(f, h, meta))
	v.Append(checkSparsifyDegree(f))
	v.Append(checkCausality(events, meta, info))
	v.Append(checkDeliverAwake(events, n, meta))
	return v
}

// checkWellFormed validates event coordinates and canonical round
// ordering; every other check assumes it passed.
func checkWellFormed(meta trace.Meta, events []trace.Event, n int) Check {
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

// foldEvents aggregates the stream into the per-check indexes.
func foldEvents(n int, events []trace.Event) *fold {
	f := &fold{
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
			f.anyCrash = true
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

// checkAwakeBudget compares each node's awake rounds against the
// algorithm's Table 1 envelope.
func checkAwakeBudget(f *fold, info RunInfo, n int) Check {
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

// checkAwakeAttribution verifies the attributed==charged identity: per
// node, the step-attributed awake rounds equal the scheduler-charged
// awake events. Crashed nodes die mid-step, so they are excluded.
func checkAwakeAttribution(f *fold, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckAwakeAttribution, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
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

// fragHistory is the result of replaying every node's fragment-label
// events in logical emission order.
type fragHistory struct {
	mergesByPhase map[int32][]trace.Event
	finalFrag     map[int32]int64
	violations    int64
	firstDetail   string
}

// walkFragments replays phase-entry and merge events per node. The
// canonical trace order sorts a phase's closing merge AFTER the next
// phase's entry event (both are stamped with the same wake round, and
// KindPhase ranks below KindMerge), so the walk restores the logical
// order — merges before phase entries at equal rounds — then checks
// label continuity and attributes each merge to the phase the node was
// still in.
func walkFragments(f *fold) *fragHistory {
	h := &fragHistory{mergesByPhase: map[int32][]trace.Event{}, finalFrag: make(map[int32]int64, f.n)}
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

// checkMerges verifies per-phase merge structure: label continuity and
// at most one merge per node (consistency), and the tails-into-heads
// direction (no fragment is both source and target of one phase's
// waves) that keeps the merge supergraph single-hop.
func checkMerges(h *fragHistory, meta trace.Meta) (consistency, direction Check) {
	consistency = Check{Name: CheckMergeConsistency, Status: StatusPass}
	direction = Check{Name: CheckMergeDirection, Status: StatusPass}
	if meta.Dropped > 0 {
		reason := fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped)
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

// checkFragmentDecay verifies the Lemma 1 / Lemma 5 shape: the number
// of distinct fragments never grows across phases, and the run ends
// with every (non-crashed) node in one fragment.
func checkFragmentDecay(f *fold, h *fragHistory, meta trace.Meta) Check {
	c := Check{Name: CheckFragmentDecay, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
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

// checkSparsifyDegree verifies every recorded supergraph degree stays
// within SupergraphDegreeBound.
func checkSparsifyDegree(f *fold) Check {
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

// roundEnd returns the end of the equal-round run of events starting
// at lo. A well-formed stream is sorted by round, so each round's
// events form one run; their order inside it is not relied on.
func roundEnd(events []trace.Event, lo int) int {
	hi := lo + 1
	for hi < len(events) && events[hi].Round == events[lo].Round {
		hi++
	}
	return hi
}

// checkCausality verifies every delivery has a matching send: in the
// same round (clean model), or in any earlier-or-equal round when
// Relaxed (interceptor delays and duplicate copies arrive late).
func checkCausality(events []trace.Event, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckCausality, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
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
			hi := roundEnd(events, lo)
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

// pairKey is a (sender, receiver) node pair.
type pairKey struct {
	from, to int32
}

// pairBits packs a (from, to) node pair into a sort key with a free
// low bit; well-formed nodes are non-negative int32s, so it is order
// preserving.
func pairBits(from, to int32) uint64 {
	return (uint64(from)<<32 | uint64(to)) << 1
}

// checkDeliverAwake verifies no delivery reached a node that was not
// awake (and charged) in the delivery round.
func checkDeliverAwake(events []trace.Event, n int, meta trace.Meta) Check {
	c := Check{Name: CheckDeliverAwake, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	// awakeIn[v] is 1 + the start of the last round run with an awake
	// event for v, so stamps from earlier rounds never match.
	awakeIn := make([]int, n)
	for lo := 0; lo < len(events); {
		hi := roundEnd(events, lo)
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

func fail(c Check, detail string) Check {
	c.Status = StatusFail
	c.Violations++
	c.Detail = detail
	return c
}

func skip(c Check, reason string) Check {
	c.Status = StatusSkip
	c.Detail = reason
	return c
}
