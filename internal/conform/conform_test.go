package conform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sleepmst/internal/trace"
)

// tb is a TB capturing failures instead of failing the real test.
type tb struct {
	errors []string
}

func (f *tb) Helper() {}

func (f *tb) Errorf(format string, args ...interface{}) {
	f.errors = append(f.errors, format)
}

// cleanTrace builds a minimal well-formed 2-node trace satisfying the
// whole catalog: one phase, one exchange, one merge into a single
// final fragment, awake rounds fully attributed.
func cleanTrace() (trace.Meta, []trace.Event) {
	events := []trace.Event{
		{Kind: trace.KindPhase, Round: 1, Node: 0, Phase: 1, Frag: 1},
		{Kind: trace.KindAwake, Round: 1, Node: 0},
		{Kind: trace.KindSend, Round: 1, Node: 0, Port: 0, Peer: 1},
		{Kind: trace.KindDeliver, Round: 1, Node: 0, Port: 0, Peer: 1},
		{Kind: trace.KindPhase, Round: 1, Node: 1, Phase: 1, Frag: 2},
		{Kind: trace.KindAwake, Round: 1, Node: 1},
		{Kind: trace.KindSend, Round: 1, Node: 1, Port: 0, Peer: 0},
		{Kind: trace.KindDeliver, Round: 1, Node: 1, Port: 0, Peer: 0},
		{Kind: trace.KindStep, Round: 2, Node: 0, Phase: 1, Step: trace.StepFindMOE, Aux: 1},
		{Kind: trace.KindStep, Round: 2, Node: 1, Phase: 1, Step: trace.StepFindMOE, Aux: 1},
		{Kind: trace.KindMerge, Round: 2, Node: 1, Frag: 1, Prev: 2},
		{Kind: trace.KindNbrs, Round: 2, Node: 0, Phase: 1, Aux: 2},
	}
	meta := trace.Meta{N: 2, Rounds: 1, Events: int64(len(events))}
	return meta, events
}

func info() RunInfo { return RunInfo{Algorithm: AlgoRandomized, Seed: 7} }

// status returns the named check's status ("" if absent).
func status(v *Verdict, name string) string {
	if c := v.Lookup(name); c != nil {
		return c.Status
	}
	return ""
}

func TestCleanTracePassesCatalog(t *testing.T) {
	meta, events := cleanTrace()
	v := CheckTrace(meta, events, info())
	if !v.Pass {
		t.Fatalf("clean trace failed:\n%s", v)
	}
	for _, name := range []string{CheckWellFormed, CheckAwakeBudget, CheckAwakeAttribution,
		CheckMergeConsistency, CheckMergeDirection, CheckFragmentDecay, CheckSparsifyDegree,
		CheckCausality, CheckDeliverAwake} {
		if got := status(v, name); got != StatusPass {
			t.Errorf("%s = %s, want pass", name, got)
		}
	}
}

func TestWellFormedGatesEverything(t *testing.T) {
	meta, events := cleanTrace()
	events[0].Node = 9 // out of range for n=2
	v := CheckTrace(meta, events, info())
	if v.Pass {
		t.Fatal("malformed trace passed")
	}
	if got := status(v, CheckWellFormed); got != StatusFail {
		t.Fatalf("wellformed = %s, want fail", got)
	}
	for _, c := range v.Checks[1:] {
		if c.Status != StatusSkip {
			t.Errorf("%s = %s, want skip after wellformed failure", c.Name, c.Status)
		}
	}
}

func TestAwakeBudgetViolation(t *testing.T) {
	meta, events := cleanTrace()
	// 60 awake rounds blows the randomized budget 56·log2(2) = 56;
	// attribute them so only the budget check trips.
	for r := int64(2); r <= 60; r++ {
		events = append(events, trace.Event{Kind: trace.KindAwake, Round: r, Node: 0})
	}
	events = append(events, trace.Event{Kind: trace.KindStep, Round: 61, Node: 0, Phase: 1, Step: trace.StepMerge, Aux: 59})
	v := CheckTrace(meta, events, info())
	if got := status(v, CheckAwakeBudget); got != StatusFail {
		t.Fatalf("budget = %s, want fail:\n%s", got, v)
	}
	if got := status(v, CheckAwakeAttribution); got != StatusPass {
		t.Errorf("attribution = %s, want pass", got)
	}
	// The same trace passes with enough slack.
	relaxed := info()
	relaxed.BudgetSlack = 4
	if got := status(CheckTrace(meta, events, relaxed), CheckAwakeBudget); got != StatusPass {
		t.Errorf("budget with slack 4 = %s, want pass", got)
	}
}

func TestAwakeBudgetSkippedWithoutEnvelope(t *testing.T) {
	meta, events := cleanTrace()
	for _, algo := range []string{"", "baseline", "ghs"} {
		v := CheckTrace(meta, events, RunInfo{Algorithm: algo})
		if got := status(v, CheckAwakeBudget); got != StatusSkip {
			t.Errorf("algo %q: budget = %s, want skip", algo, got)
		}
	}
}

func TestAttributionMismatch(t *testing.T) {
	meta, events := cleanTrace()
	for i := range events {
		if events[i].Kind == trace.KindStep && events[i].Node == 0 {
			events[i].Aux = 3 // node 0 charged 1 awake round, attributes 3
		}
	}
	v := CheckTrace(meta, events, info())
	if got := status(v, CheckAwakeAttribution); got != StatusFail {
		t.Fatalf("attribution = %s, want fail:\n%s", got, v)
	}
}

func TestMergeContinuityViolation(t *testing.T) {
	meta, events := cleanTrace()
	for i := range events {
		if events[i].Kind == trace.KindMerge {
			events[i].Prev = 5 // node 1 was in fragment 2, not 5
		}
	}
	v := CheckTrace(meta, events, info())
	if got := status(v, CheckMergeConsistency); got != StatusFail {
		t.Fatalf("consistency = %s, want fail:\n%s", got, v)
	}
}

func TestChainedMergeViolatesDirection(t *testing.T) {
	// Three nodes: 2 -> 1 and 3 -> 2 in the same phase makes fragment
	// 2 both a target and a source — a chain the paper's waves forbid.
	events := []trace.Event{
		{Kind: trace.KindPhase, Round: 1, Node: 0, Phase: 1, Frag: 1},
		{Kind: trace.KindAwake, Round: 1, Node: 0},
		{Kind: trace.KindPhase, Round: 1, Node: 1, Phase: 1, Frag: 2},
		{Kind: trace.KindAwake, Round: 1, Node: 1},
		{Kind: trace.KindPhase, Round: 1, Node: 2, Phase: 1, Frag: 3},
		{Kind: trace.KindAwake, Round: 1, Node: 2},
		{Kind: trace.KindStep, Round: 2, Node: 0, Phase: 1, Step: trace.StepMerge, Aux: 1},
		{Kind: trace.KindStep, Round: 2, Node: 1, Phase: 1, Step: trace.StepMerge, Aux: 1},
		{Kind: trace.KindMerge, Round: 2, Node: 1, Frag: 1, Prev: 2},
		{Kind: trace.KindStep, Round: 2, Node: 2, Phase: 1, Step: trace.StepMerge, Aux: 1},
		{Kind: trace.KindMerge, Round: 2, Node: 2, Frag: 2, Prev: 3},
	}
	meta := trace.Meta{N: 3, Rounds: 1, Events: int64(len(events))}
	v := CheckTrace(meta, events, info())
	if got := status(v, CheckMergeDirection); got != StatusFail {
		t.Fatalf("direction = %s, want fail:\n%s", got, v)
	}
	if c := v.Lookup(CheckMergeDirection); !strings.Contains(c.Detail, "fragment 2") {
		t.Errorf("detail %q does not name the chained fragment", c.Detail)
	}
}

func TestPhaseBoundaryMergeOrderIsHandled(t *testing.T) {
	// The canonical order puts a phase's closing merge after the next
	// phase's entry event at the same round (KindPhase < KindMerge).
	// The walk must not report a continuity break or misattribute the
	// merge to phase 2.
	events := []trace.Event{
		{Kind: trace.KindPhase, Round: 1, Node: 0, Phase: 1, Frag: 1},
		{Kind: trace.KindAwake, Round: 1, Node: 0},
		{Kind: trace.KindPhase, Round: 1, Node: 1, Phase: 1, Frag: 2},
		{Kind: trace.KindAwake, Round: 1, Node: 1},
		{Kind: trace.KindStep, Round: 3, Node: 0, Phase: 1, Step: trace.StepMerge, Aux: 1},
		// Node 1: phase-2 entry (already as fragment 1) sorts before
		// the phase-1 merge that produced it.
		{Kind: trace.KindPhase, Round: 3, Node: 1, Phase: 2, Frag: 1},
		{Kind: trace.KindStep, Round: 3, Node: 1, Phase: 1, Step: trace.StepMerge, Aux: 1},
		{Kind: trace.KindMerge, Round: 3, Node: 1, Frag: 1, Prev: 2},
		{Kind: trace.KindPhase, Round: 3, Node: 0, Phase: 2, Frag: 1},
	}
	meta := trace.Meta{N: 2, Rounds: 3, Events: int64(len(events))}
	v := CheckTrace(meta, events, info())
	for _, name := range []string{CheckMergeConsistency, CheckMergeDirection, CheckFragmentDecay} {
		if got := status(v, name); got != StatusPass {
			t.Errorf("%s = %s, want pass:\n%s", name, got, v)
		}
	}
}

func TestFragmentDecayViolation(t *testing.T) {
	meta, events := cleanTrace()
	// Drop the merge: the run ends with two fragments.
	var kept []trace.Event
	for _, ev := range events {
		if ev.Kind != trace.KindMerge {
			kept = append(kept, ev)
		}
	}
	v := CheckTrace(meta, kept, info())
	if got := status(v, CheckFragmentDecay); got != StatusFail {
		t.Fatalf("decay = %s, want fail:\n%s", got, v)
	}
}

func TestSparsifyDegreeViolation(t *testing.T) {
	meta, events := cleanTrace()
	events = append(events, trace.Event{Kind: trace.KindNbrs, Round: 3, Node: 0, Phase: 1, Aux: SupergraphDegreeBound + 1})
	v := CheckTrace(meta, events, info())
	if got := status(v, CheckSparsifyDegree); got != StatusFail {
		t.Fatalf("sparsify = %s, want fail:\n%s", got, v)
	}
}

func TestCausalityStrictAndRelaxed(t *testing.T) {
	meta, events := cleanTrace()
	// A late deliver: sent in round 1, delivered in round 3.
	events = append(events,
		trace.Event{Kind: trace.KindAwake, Round: 3, Node: 1},
		trace.Event{Kind: trace.KindDeliver, Round: 3, Node: 1, Port: 0, Peer: 0},
		trace.Event{Kind: trace.KindStep, Round: 4, Node: 1, Phase: 1, Step: trace.StepMerge, Aux: 1},
	)
	strict := CheckTrace(meta, events, info())
	if got := status(strict, CheckCausality); got != StatusFail {
		t.Fatalf("strict causality = %s, want fail:\n%s", got, strict)
	}
	rin := info()
	rin.Relaxed = true
	relaxed := CheckTrace(meta, events, rin)
	if got := status(relaxed, CheckCausality); got != StatusPass {
		t.Fatalf("relaxed causality = %s, want pass:\n%s", got, relaxed)
	}
	// A deliver with no send at all fails in both modes.
	events = append(events,
		trace.Event{Kind: trace.KindAwake, Round: 5, Node: 0},
		trace.Event{Kind: trace.KindDeliver, Round: 5, Node: 0, Port: 1, Peer: 1},
	)
	events[6].Kind = trace.KindLost // remove node 1's send (round 1)
	for _, in := range []RunInfo{info(), rin} {
		v := CheckTrace(meta, events, in)
		if got := status(v, CheckCausality); got != StatusFail {
			t.Errorf("relaxed=%v: orphan deliver = %s, want fail", in.Relaxed, got)
		}
	}
	// The relaxed detail localises the violation by event index, so
	// counterexamples line up with tracediff's coordinates: the index
	// must point at the deliver event the message describes.
	v := CheckTrace(meta, events, rin)
	c := v.Lookup(CheckCausality)
	if c == nil || !strings.HasPrefix(c.Detail, "event ") {
		t.Fatalf("relaxed causality detail = %q, want an event-index prefix", c.Detail)
	}
	var idx int
	var from, to int32
	var round int64
	if _, err := fmt.Sscanf(c.Detail, "event %d: deliver %d->%d at round %d", &idx, &from, &to, &round); err != nil {
		t.Fatalf("cannot parse detail %q: %v", c.Detail, err)
	}
	ev := events[idx]
	if ev.Kind != trace.KindDeliver || ev.Peer != from || ev.Node != to || ev.Round != round {
		t.Errorf("detail %q points at event %+v, not the offending deliver", c.Detail, ev)
	}
}

func TestDeliverToSleepingNode(t *testing.T) {
	meta, events := cleanTrace()
	events = append(events,
		trace.Event{Kind: trace.KindSend, Round: 4, Node: 0, Port: 0, Peer: 1},
		trace.Event{Kind: trace.KindDeliver, Round: 4, Node: 1, Port: 0, Peer: 0}, // no awake event
	)
	v := CheckTrace(meta, events, info())
	if got := status(v, CheckDeliverAwake); got != StatusFail {
		t.Fatalf("deliver-awake = %s, want fail:\n%s", got, v)
	}
}

func TestDroppedEventsSkipFragileChecks(t *testing.T) {
	meta, events := cleanTrace()
	meta.Dropped = 10
	v := CheckTrace(meta, events, info())
	for _, name := range []string{CheckAwakeAttribution, CheckMergeConsistency, CheckMergeDirection,
		CheckFragmentDecay, CheckCausality, CheckDeliverAwake} {
		if got := status(v, name); got != StatusSkip {
			t.Errorf("%s = %s, want skip with dropped events", name, got)
		}
	}
	if got := status(v, CheckAwakeBudget); got != StatusPass {
		t.Errorf("budget = %s, want pass (undercounting cannot false-fail)", got)
	}
}

func TestCrashedNodesExcluded(t *testing.T) {
	meta, events := cleanTrace()
	// Node 1 crashes; its attribution mismatch must not fail the check,
	// and the final-fragment census ignores it.
	var kept []trace.Event
	for _, ev := range events {
		if ev.Kind == trace.KindMerge || (ev.Kind == trace.KindStep && ev.Node == 1) {
			continue
		}
		kept = append(kept, ev)
	}
	kept = append(kept, trace.Event{Kind: trace.KindCrash, Round: 2, Node: 1})
	v := CheckTrace(meta, kept, RunInfo{Algorithm: AlgoRandomized, Relaxed: true})
	for _, name := range []string{CheckAwakeAttribution, CheckFragmentDecay} {
		if got := status(v, name); got != StatusPass {
			t.Errorf("%s = %s, want pass with node 1 crashed:\n%s", name, got, v)
		}
	}
}

func TestWeightCheck(t *testing.T) {
	if c := WeightCheck(100, 100); c.Status != StatusPass {
		t.Errorf("equal weights: %s", c.Status)
	}
	if c := WeightCheck(101, 100); c.Status != StatusFail || c.Violations != 1 {
		t.Errorf("unequal weights: %s/%d", c.Status, c.Violations)
	}
}

func TestVerdictJSONRoundTrip(t *testing.T) {
	meta, events := cleanTrace()
	v := CheckTrace(meta, events, info())
	v.Append(WeightCheck(10, 10))
	var buf bytes.Buffer
	if err := v.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Verdict
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != VerdictSchema || back.Pass != v.Pass || len(back.Checks) != len(v.Checks) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.Checks[0].Name != CheckWellFormed {
		t.Errorf("catalog order lost: first check %q", back.Checks[0].Name)
	}
}

func TestSuiteAssertReportsFailures(t *testing.T) {
	meta, events := cleanTrace()
	s := Suite{Info: info(), Meta: meta, Events: events, Extra: []Check{WeightCheck(5, 7)}}
	var ft tb
	v := s.Assert(&ft)
	if v.Pass {
		t.Fatal("weight mismatch should fail the verdict")
	}
	if len(ft.errors) != 1 {
		t.Fatalf("want 1 reported failure, got %d", len(ft.errors))
	}
	// Without the weight check the same suite passes silently.
	s.Extra = nil
	var ok tb
	if v := s.Assert(&ok); !v.Pass || len(ok.errors) != 0 {
		t.Fatalf("clean suite reported failures: %v", ok.errors)
	}
}

func TestAwakeBudgetValues(t *testing.T) {
	cases := []struct {
		algo string
		n    int
		want int64
	}{
		{AlgoRandomized, 256, 448},    // 56·8
		{AlgoDeterministic, 256, 480}, // 60·8
		{AlgoLogStar, 16, 528},        // 44·4·3
	}
	for _, c := range cases {
		got, ok := AwakeBudget(c.algo, c.n)
		if !ok || got != c.want {
			t.Errorf("AwakeBudget(%s, %d) = %d,%v want %d", c.algo, c.n, got, ok, c.want)
		}
	}
	if _, ok := AwakeBudget("ghs", 64); ok {
		t.Error("ghs should have no envelope")
	}
}
