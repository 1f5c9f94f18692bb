// Package conform is a trace-replay invariant checker for the
// sleeping-model simulator: it folds a structured event trace in
// canonical order, one round at a time — the rounds a trace.Orderer
// releases while the run goes (Fold), or a finished slice from a
// trace.Recorder or trace.ReadJSONL (CheckTrace) — and verifies the
// paper's guarantees held on that run: per-node awake budgets within
// the Table 1 envelopes, exact attribution of awake rounds to phase
// steps, single-hop tails-into-heads merge waves, degree-≤4 supergraph
// sparsification, and message causality. The
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
	"maps"
	"math"
	"slices"
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

// Fold is the invariant catalog as a streaming fold: it takes a trace
// one round at a time, in canonical order, and keeps per-node tallies
// and fragment labels, per-phase fragment sets and one round's scratch
// — O(n · phases) state, never the events. Inside a round, only the
// order of one node's events of one kind matters, and beyond that only
// which event a violation's detail names. problem.Certify feeds it the
// rounds a trace.Orderer releases while the run goes; CheckTrace feeds
// it a finished slice.
type Fold struct {
	info RunInfo

	wf        Check // trace-wellformed, counted as events arrive
	events    int   // events folded: the next event's stream index
	prevRound int64
	rounds    int64 // rounds folded: deliver-awake's stamp

	nodes     []nodeFold
	phaseFrag map[int32]map[int32]int64 // phase -> node -> entry fragment
	merges    map[int32]map[int64]uint8 // phase -> fragment -> mergeSource|mergeTarget
	walk      walkNotes
	haveSteps bool
	sparsify  Check
	nbrs      int64
	causality Check
	firstSend map[pairKey]int64 // relaxed causality: a pair's first send round
	keys      []uint64          // strict causality: one round's pair keys
	awake     Check             // deliver-awake
}

// nodeFold is one node's share of the fold.
type nodeFold struct {
	awake   int64 // KindAwake events
	steps   int64 // KindStep awake deltas
	frag    int64 // the label set by the node's last phase or merge event
	awakeIn int64 // the fold's round count when the node was last awake
	phase   int32 // the phase the node last entered (0 = none yet)
	crashed bool
	known   bool // frag is set
	merged  bool // the node merged in its current phase
}

// Merge roles of a fragment within one phase.
const (
	mergeSource uint8 = 1 << iota
	mergeTarget
)

// walkNotes counts the fragment walk's violations and keeps the
// detail of the lowest node's first one: the walk visits each node's
// label events in logical order, and the catalog reports nodes in
// index order.
type walkNotes struct {
	violations int64
	node       int32
	detail     string
}

func (w *walkNotes) note(node int32, format string, args ...interface{}) {
	w.violations++
	if w.detail == "" || node < w.node {
		w.node, w.detail = node, fmt.Sprintf(format, args...)
	}
}

// NewFold returns an empty fold for a run on info.N nodes.
func NewFold(info RunInfo) *Fold {
	f := &Fold{
		info:      info,
		prevRound: -1,
		wf:        Check{Name: CheckWellFormed, Status: StatusPass},
		sparsify:  Check{Name: CheckSparsifyDegree, Status: StatusPass},
		causality: Check{Name: CheckCausality, Status: StatusPass},
		awake:     Check{Name: CheckDeliverAwake, Status: StatusPass},
	}
	if info.N <= 0 {
		f.wf = fail(f.wf, fmt.Sprintf("non-positive node count %d", info.N))
		return f
	}
	f.nodes = make([]nodeFold, info.N)
	f.phaseFrag = map[int32]map[int32]int64{}
	f.merges = map[int32]map[int64]uint8{}
	if info.Relaxed {
		f.firstSend = map[pairKey]int64{}
	}
	return f
}

// CheckTrace runs the invariant catalog over one trace and returns the
// verdict. meta and events come from trace.ReadJSONL or from a live
// Recorder (Meta()/Events()); info supplies the run context, and a
// zero info.N takes the node count from meta. It is the streaming
// Fold fed the slice one equal-round run at a time.
func CheckTrace(meta trace.Meta, events []trace.Event, info RunInfo) *Verdict {
	if info.N == 0 {
		info.N = meta.N
	}
	f := NewFold(info)
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && events[hi].Round == events[lo].Round {
			hi++
		}
		f.Round(events[lo:hi])
		lo = hi
	}
	return f.Verdict(meta)
}

// Round folds the events of one round. Once an event is malformed,
// only trace-wellformed keeps counting: every other check is skipped.
func (f *Fold) Round(events []trace.Event) {
	if f.nodes == nil {
		return // non-positive node count: already failed
	}
	base := f.events
	for i := range events {
		f.wellFormed(base+i, &events[i])
	}
	f.events += len(events)
	if f.wf.Violations > 0 {
		return
	}
	f.rounds++
	f.keys = f.keys[:0]
	// Tallies, awake stamps, sends, and merges: a node's merges at this
	// round close its previous phase, so they precede its phase entries
	// at the same round, which the canonical order ranks first.
	for i := range events {
		ev := &events[i]
		nd := &f.nodes[ev.Node]
		switch ev.Kind {
		case trace.KindAwake:
			nd.awake++
			nd.awakeIn = f.rounds
		case trace.KindStep:
			nd.steps += ev.Aux
			f.haveSteps = true
		case trace.KindCrash:
			nd.crashed = true
		case trace.KindMerge:
			f.merge(nd, ev)
		case trace.KindNbrs:
			f.nbrs++
			if ev.Aux > SupergraphDegreeBound {
				f.sparsify.Violations++
				if f.sparsify.Detail == "" {
					f.sparsify.Detail = fmt.Sprintf("node %d reports supergraph degree %d > %d (phase %d)", ev.Node, ev.Aux, SupergraphDegreeBound, ev.Phase)
				}
			}
		case trace.KindSend:
			if f.firstSend == nil {
				f.keys = append(f.keys, pairBits(ev.Node, ev.Peer))
			} else if _, seen := f.firstSend[pairKey{ev.Node, ev.Peer}]; !seen {
				f.firstSend[pairKey{ev.Node, ev.Peer}] = ev.Round
			}
		case trace.KindDeliver:
			if f.firstSend == nil {
				f.keys = append(f.keys, pairBits(ev.Peer, ev.Node)|1)
			}
		}
	}
	// Phase entries, and deliveries against the round's awake stamps
	// and (relaxed) every send so far.
	for i := range events {
		ev := &events[i]
		nd := &f.nodes[ev.Node]
		switch ev.Kind {
		case trace.KindPhase:
			f.enterPhase(nd, ev)
		case trace.KindDeliver:
			if nd.awakeIn != f.rounds {
				f.awake.Violations++
				if f.awake.Detail == "" {
					f.awake.Detail = fmt.Sprintf("node %d received from %d in round %d while asleep", ev.Node, ev.Peer, ev.Round)
				}
			}
			if f.firstSend == nil {
				continue
			}
			if sent, ok := f.firstSend[pairKey{ev.Peer, ev.Node}]; !ok || sent > ev.Round {
				f.causality.Violations++
				if f.causality.Detail == "" {
					// The event index localises the violation in the
					// canonical stream (tracediff's coordinate system).
					f.causality.Detail = fmt.Sprintf("event %d: deliver %d->%d at round %d precedes every send",
						base+i, ev.Peer, ev.Node, ev.Round)
				}
			}
		}
	}
	if f.firstSend == nil && len(events) > 0 {
		f.strictCausality(events[0].Round)
	}
}

// wellFormed checks one event's coordinates and its place in the
// round order.
func (f *Fold) wellFormed(i int, ev *trace.Event) {
	n := len(f.nodes)
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
	case ev.Round < f.prevRound:
		bad = fmt.Sprintf("round %d after round %d breaks canonical order", ev.Round, f.prevRound)
	}
	if bad != "" {
		f.wf.Violations++
		if f.wf.Detail == "" {
			f.wf.Detail = fmt.Sprintf("event %d (%s): %s", i, ev, bad)
		}
	}
	f.prevRound = ev.Round
}

// merge walks one merge event: at most one per node per phase, never
// a self-merge, and from the label the node holds. The merge counts
// for the phase the node is still in.
func (f *Fold) merge(nd *nodeFold, ev *trace.Event) {
	if nd.merged {
		f.walk.note(ev.Node, "node %d merges twice in phase %d", ev.Node, nd.phase)
	}
	nd.merged = true
	if ev.Prev == ev.Frag {
		f.walk.note(ev.Node, "node %d: self-merge of fragment %d in phase %d", ev.Node, ev.Frag, nd.phase)
	}
	if nd.known && nd.frag != ev.Prev {
		f.walk.note(ev.Node, "node %d merges from fragment %d but was in %d (phase %d)", ev.Node, ev.Prev, nd.frag, nd.phase)
	}
	nd.frag, nd.known = ev.Frag, true
	roles := f.merges[nd.phase]
	if roles == nil {
		roles = map[int64]uint8{}
		f.merges[nd.phase] = roles
	}
	roles[ev.Prev] |= mergeSource
	roles[ev.Frag] |= mergeTarget
}

// enterPhase walks one phase entry, which must carry the label the
// node already holds, and records the node's entry fragment.
func (f *Fold) enterPhase(nd *nodeFold, ev *trace.Event) {
	if nd.known && nd.frag != ev.Frag {
		f.walk.note(ev.Node, "node %d enters phase %d as fragment %d, was %d", ev.Node, ev.Phase, ev.Frag, nd.frag)
	}
	nd.phase, nd.frag, nd.known, nd.merged = ev.Phase, ev.Frag, true, false
	entry := f.phaseFrag[ev.Phase]
	if entry == nil {
		entry = map[int32]int64{}
		f.phaseFrag[ev.Phase] = entry
	}
	entry[ev.Node] = ev.Frag
}

// strictCausality checks one round's pair keys: sorted, each (from,
// to) pair's sends and deliveries form one run, so a pair with more
// deliveries than sends is found in (from, to) order whatever the
// order of the events inside the round.
func (f *Fold) strictCausality(round int64) {
	keys := f.keys
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
		f.causality.Violations += delivers - sends
		if f.causality.Detail == "" {
			f.causality.Detail = fmt.Sprintf("round %d: %d deliveries %d->%d but %d sends",
				round, delivers, pair>>32, pair&math.MaxUint32, sends)
		}
	}
}

// Verdict closes the fold: the catalog over everything folded, for the
// trace described by meta. Checks that need the whole trace skip when
// meta counts dropped events.
func (f *Fold) Verdict(meta trace.Meta) *Verdict {
	info := f.info
	v := &Verdict{Schema: VerdictSchema, Algo: info.Algorithm, N: info.N, Seed: info.Seed, Relaxed: info.Relaxed, Pass: true}
	wf := f.wf
	if wf.Violations > 0 {
		wf.Status = StatusFail
	}
	v.Append(wf)
	if wf.Status == StatusFail {
		for _, name := range []string{CheckAwakeBudget, CheckAwakeAttribution, CheckMergeConsistency,
			CheckMergeDirection, CheckFragmentDecay, CheckSparsifyDegree, CheckCausality, CheckDeliverAwake} {
			v.Append(Check{Name: name, Status: StatusSkip, Detail: "trace not well-formed"})
		}
		return v
	}
	dropped := ""
	if meta.Dropped > 0 {
		dropped = fmt.Sprintf("%d events dropped from the trace", meta.Dropped)
	}
	v.Append(f.awakeBudget())
	v.Append(f.attribution(dropped))
	consistency, direction := f.mergeChecks(dropped)
	v.Append(consistency)
	v.Append(direction)
	v.Append(f.fragmentDecay(dropped))
	v.Append(f.sparsifyDegree())
	for _, c := range []Check{f.causality, f.awake} {
		if dropped != "" {
			c = skip(Check{Name: c.Name}, dropped)
		} else if c.Violations > 0 {
			c.Status = StatusFail
		}
		v.Append(c)
	}
	return v
}

// awakeBudget compares each node's awake rounds against the
// algorithm's Table 1 envelope.
func (f *Fold) awakeBudget() Check {
	c := Check{Name: CheckAwakeBudget, Status: StatusPass}
	info := f.info
	var budget int64
	var ok bool
	if info.Budget != nil {
		budget, ok = info.Budget(info.N)
	} else {
		budget, ok = AwakeBudget(info.Algorithm, info.N)
	}
	if !ok {
		return skip(c, fmt.Sprintf("no awake envelope for algorithm %q", info.Algorithm))
	}
	slack := info.BudgetSlack
	if slack <= 0 {
		slack = 1
	}
	limit := int64(float64(budget) * slack)
	for node, nd := range f.nodes {
		// A trace with dropped events can undercount the charges.
		if awake := max(nd.awake, nd.steps); awake > limit {
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

// attribution verifies the attributed==charged identity: per node, the
// step-attributed awake rounds equal the scheduler-charged awake
// events. Crashed nodes die mid-step, so they are excluded.
func (f *Fold) attribution(dropped string) Check {
	c := Check{Name: CheckAwakeAttribution, Status: StatusPass}
	if dropped != "" {
		return skip(c, dropped)
	}
	if !f.haveSteps {
		return skip(c, "trace has no step events")
	}
	for node, nd := range f.nodes {
		if !nd.crashed && nd.steps != nd.awake {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d: %d attributed != %d charged", node, nd.steps, nd.awake)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// mergeChecks reports the per-phase merge structure: label continuity
// and at most one merge per node (consistency), and the
// tails-into-heads direction (no fragment is both source and target
// of one phase's waves) that keeps the merge supergraph single-hop.
func (f *Fold) mergeChecks(dropped string) (consistency, direction Check) {
	consistency = Check{Name: CheckMergeConsistency, Status: StatusPass}
	direction = Check{Name: CheckMergeDirection, Status: StatusPass}
	if dropped != "" {
		return skip(consistency, dropped), skip(direction, dropped)
	}
	consistency.Violations = f.walk.violations
	consistency.Detail = f.walk.detail
	if consistency.Violations > 0 {
		consistency.Status = StatusFail
	}
	for _, ph := range slices.Sorted(maps.Keys(f.merges)) {
		var chained []int64
		for frag, roles := range f.merges[ph] {
			if roles == mergeSource|mergeTarget {
				chained = append(chained, frag)
			}
		}
		direction.Violations += int64(len(chained))
		if len(chained) > 0 && direction.Detail == "" {
			direction.Detail = fmt.Sprintf("fragment %d is both merge source and target in phase %d", slices.Min(chained), ph)
		}
	}
	if direction.Violations > 0 {
		direction.Status = StatusFail
	}
	return consistency, direction
}

// fragmentDecay verifies the Lemma 1 / Lemma 5 shape: the number of
// distinct fragments never grows across phases, and the run ends with
// every (non-crashed) node in one fragment.
func (f *Fold) fragmentDecay(dropped string) Check {
	c := Check{Name: CheckFragmentDecay, Status: StatusPass}
	if dropped != "" {
		return skip(c, dropped)
	}
	if len(f.phaseFrag) == 0 {
		return skip(c, "trace has no phase events")
	}
	prevCount := -1
	for _, ph := range slices.Sorted(maps.Keys(f.phaseFrag)) {
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
	for _, nd := range f.nodes {
		if nd.known && !nd.crashed {
			final[nd.frag] = true
		}
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

// sparsifyDegree reports whether every recorded supergraph degree
// stayed within SupergraphDegreeBound.
func (f *Fold) sparsifyDegree() Check {
	c := f.sparsify
	if f.nbrs == 0 {
		return skip(c, "trace has no nbrs events")
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	} else {
		c.Detail = fmt.Sprintf("%d degree reports ≤ %d", f.nbrs, SupergraphDegreeBound)
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
