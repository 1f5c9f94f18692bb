package sim

import (
	"fmt"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/trace"
)

// hookChooser is a test chooser assembled from closures; nil fields
// make the fixed choice.
type hookChooser struct {
	onWake   func(node int, intended int64) int64
	onSender func(round int64, remaining []int) int
	onFault  func(round int64, from, port, to int) bool
}

func (h *hookChooser) ChooseWake(node int, intended int64) int64 {
	if h.onWake != nil {
		return h.onWake(node, intended)
	}
	return intended
}
func (h *hookChooser) ChooseSender(round int64, remaining []int) int {
	if h.onSender != nil {
		return h.onSender(round, remaining)
	}
	return 0
}
func (h *hookChooser) ChooseFault(round int64, from, port, to int) bool {
	if h.onFault != nil {
		return h.onFault(round, from, port, to)
	}
	return false
}

// traceLines renders a run's canonical event stream for comparison.
func traceLines(t *testing.T, g *graph.Graph, cfg Config, prog Program) []string {
	t.Helper()
	rec := trace.NewRecorder(0)
	cfg.Graph = g
	cfg.Trace = rec
	if _, err := Run(cfg, prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	var lines []string
	for _, ev := range rec.Events() {
		lines = append(lines, ev.String())
	}
	return lines
}

// TestFixedChooserBitIdentical: a run with the identity chooser must
// produce exactly the event stream of a run with no chooser at all —
// the production path is preserved bit-identically under the hook.
func TestFixedChooserBitIdentical(t *testing.T) {
	g := graph.Cycle(4, graph.GenConfig{Seed: 2})
	base := traceLines(t, g, Config{Seed: 3}, chatter(3))
	hooked := traceLines(t, g, Config{Seed: 3, Chooser: FixedChooser{}}, chatter(3))
	if len(base) != len(hooked) {
		t.Fatalf("event counts differ: %d vs %d", len(base), len(hooked))
	}
	for i := range base {
		if base[i] != hooked[i] {
			t.Fatalf("event %d differs:\n  nil chooser:   %s\n  fixed chooser: %s", i, base[i], hooked[i])
		}
	}
}

// TestChooseWakeOversleeps: a wake choice > intended delays the node
// like an interceptor oversleep — the overslept node misses the round
// and messages to it are lost.
func TestChooseWakeOversleeps(t *testing.T) {
	g := pathGraph(t, 2)
	ch := &hookChooser{onWake: func(node int, intended int64) int64 {
		if node == 1 && intended == 2 {
			return 3 // node 1 sleeps through round 2
		}
		return intended
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Chooser: ch}, chatter(2))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Round 1: both awake, 2 delivered. Round 2: node 0 sends to a
	// sleeping node 1 — lost. Round 3: node 1 sends to a finished
	// node 0 — lost.
	if res.MessagesLost != 2 {
		t.Errorf("lost=%d, want 2", res.MessagesLost)
	}
	if res.WakesPerturbed != 1 {
		t.Errorf("wakes perturbed=%d, want 1", res.WakesPerturbed)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds=%d, want 3 (node 1 overslept into round 3)", res.Rounds)
	}
}

// TestChooseFaultDropsMessage: a fault choice drops exactly the chosen
// message, metered as dropped + lost.
func TestChooseFaultDropsMessage(t *testing.T) {
	g := pathGraph(t, 2)
	ch := &hookChooser{onFault: func(round int64, from, port, to int) bool {
		return round == 1 && from == 0
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Chooser: ch}, chatter(2))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MessagesSent != 4 || res.MessagesDelivered != 3 {
		t.Errorf("sent=%d delivered=%d, want 4/3", res.MessagesSent, res.MessagesDelivered)
	}
	if res.MessagesDropped != 1 || res.MessagesLost != 1 {
		t.Errorf("dropped=%d lost=%d, want 1/1", res.MessagesDropped, res.MessagesLost)
	}
}

// TestChooseSenderPermutesRouting: the sender choice points see the
// remaining staged senders in ascending order and compose into any
// routing permutation; and because inboxes are port-keyed with at most
// one message per port per round, the permuted routing is unobservable
// to the clean model — the delivered state matches the default order.
func TestChooseSenderPermutesRouting(t *testing.T) {
	g := graph.Cycle(4, graph.GenConfig{Seed: 2})
	var calls []string
	ch := &hookChooser{onSender: func(round int64, remaining []int) int {
		calls = append(calls, fmt.Sprintf("r%d:%v", round, remaining))
		return len(remaining) - 1 // route in descending index order
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Chooser: ch}, chatter(1))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// One round, 4 senders with staged outboxes: the pool shrinks from
	// the full sorted set, picked from the back each time.
	want := []string{"r1:[0 1 2 3]", "r1:[0 1 2]", "r1:[0 1]"}
	if len(calls) != len(want) {
		t.Fatalf("ChooseSender calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("ChooseSender call %d = %q, want %q", i, calls[i], want[i])
		}
	}
	if res.MessagesDelivered != 8 {
		t.Errorf("delivered=%d, want 8 (routing order must not change delivery)", res.MessagesDelivered)
	}
}

// TestChooseSenderSkipsSilentNodes: participants with no staged
// messages are not offered as routing branch points.
func TestChooseSenderSkipsSilentNodes(t *testing.T) {
	g := pathGraph(t, 3)
	var pools [][]int
	ch := &hookChooser{onSender: func(round int64, remaining []int) int {
		pools = append(pools, append([]int(nil), remaining...))
		return 0
	}}
	// Only the endpoints (0 and 2) send; node 1 exchanges silently.
	prog := func(nd *Node) error {
		out := nd.Outbox() // node 1 stages a Degree-long all-nil outbox
		if nd.Degree() == 1 {
			out[0] = nd.Index()
		}
		nd.Exchange(out)
		return nil
	}
	if _, err := Run(Config{Graph: g, Seed: 1, Chooser: ch}, prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(pools) != 1 || len(pools[0]) != 2 || pools[0][0] != 0 || pools[0][1] != 2 {
		t.Fatalf("sender pools = %v, want one call with [0 2]", pools)
	}
}

// TestChooserRunsAreDeterministic: two runs with the same replaying
// chooser produce identical event streams — the choice-point sequence
// is a deterministic function of the run inputs, which is what the
// model checker's prefix-replay exploration relies on.
func TestChooserRunsAreDeterministic(t *testing.T) {
	g := graph.Complete(4, graph.GenConfig{Seed: 5})
	mk := func() Chooser {
		step := 0
		return &hookChooser{
			onWake: func(node int, intended int64) int64 {
				step++
				if step%5 == 0 {
					return intended + 1
				}
				return intended
			},
			onSender: func(round int64, remaining []int) int {
				step++
				return step % len(remaining)
			},
			onFault: func(round int64, from, port, to int) bool {
				step++
				return step%7 == 0
			},
		}
	}
	a := traceLines(t, g, Config{Seed: 9, Chooser: mk()}, chatter(3))
	b := traceLines(t, g, Config{Seed: 9, Chooser: mk()}, chatter(3))
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across replays:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
