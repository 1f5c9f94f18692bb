package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// hookInterceptor is a test Interceptor assembled from closures, with
// the optional ChooseSender; nil fields make the fixed choice, so
// &hookInterceptor{} is the identity hook.
type hookInterceptor struct {
	onMessage func(ev *MessageEvent)
	onWake    func(node int, intended int64) int64
	crash     func(node int) int64
	onSender  func(round int64, remaining []int) int
}

func (h *hookInterceptor) BeginRun(n int) {}
func (h *hookInterceptor) InterceptMessage(ev *MessageEvent) {
	if h.onMessage != nil {
		h.onMessage(ev)
	}
}
func (h *hookInterceptor) InterceptWake(node int, intended int64) int64 {
	if h.onWake != nil {
		return h.onWake(node, intended)
	}
	return intended
}
func (h *hookInterceptor) CrashRound(node int) int64 {
	if h.crash != nil {
		return h.crash(node)
	}
	return 0
}
func (h *hookInterceptor) ChooseSender(round int64, remaining []int) int {
	if h.onSender != nil {
		return h.onSender(round, remaining)
	}
	return 0
}

// indexOrder hides a hook's ChooseSender, so the run routes in index
// order, as under a chaos policy.
func indexOrder(itc Interceptor) Interceptor { return struct{ Interceptor }{itc} }

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

// chatter is a program where every node exchanges for rounds rounds,
// sending its index on every port.
func chatter(rounds int64) Program {
	return func(nd *Node) error {
		for r := int64(0); r < rounds; r++ {
			out := nd.Outbox()
			for p := 0; p < nd.Degree(); p++ {
				out[p] = nd.Index()
			}
			nd.Exchange(out)
		}
		return nil
	}
}

func TestInterceptorDropLosesMessages(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onMessage: func(ev *MessageEvent) { ev.Drop = true }}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(2))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MessagesSent != 4 || res.MessagesDelivered != 0 {
		t.Errorf("sent=%d delivered=%d, want 4/0", res.MessagesSent, res.MessagesDelivered)
	}
	if res.MessagesDropped != 4 || res.MessagesLost != 4 {
		t.Errorf("dropped=%d lost=%d, want 4/4", res.MessagesDropped, res.MessagesLost)
	}
}

// TestInterceptorDropsChosenMessage: a drop verdict loses exactly the
// chosen message, metered as dropped + lost.
func TestInterceptorDropsChosenMessage(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onMessage: func(ev *MessageEvent) {
		ev.Drop = ev.Round == 1 && ev.From == 0
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(2))
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

func TestInterceptorDelayShiftsDelivery(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onMessage: func(ev *MessageEvent) { ev.Delay = 1 }}
	var got []interface{}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, func(nd *Node) error {
		for r := int64(1); r <= 3; r++ {
			in := nd.Exchange(Outbox{0: r})
			if nd.Index() == 1 {
				got = append(got, in[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Round 1 delivers nothing; rounds 2 and 3 deliver the copies sent
	// in rounds 1 and 2. The copies sent in round 3 die in flight.
	if len(got) != 3 || got[0] != nil || got[1] != int64(1) || got[2] != int64(2) {
		t.Errorf("received sequence = %v, want [nil 1 2]", got)
	}
	if res.MessagesDelayed != 6 {
		t.Errorf("delayed = %d, want 6", res.MessagesDelayed)
	}
	if res.MessagesDelivered != 4 || res.MessagesLost != 2 {
		t.Errorf("delivered=%d lost=%d, want 4/2 (in-flight copies lost at run end)",
			res.MessagesDelivered, res.MessagesLost)
	}
}

func TestInterceptorDuplicateReplaysNextRound(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onMessage: func(ev *MessageEvent) {
		if ev.Round == 1 {
			ev.Duplicate = 1
		}
	}}
	var got []interface{}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, func(nd *Node) error {
		in := nd.Exchange(Outbox{0: "fresh"})
		if nd.Index() == 1 {
			got = append(got, in[0])
		}
		in = nd.Exchange(nil) // round 2: only the replayed copy arrives
		if nd.Index() == 1 {
			got = append(got, in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 2 || got[0] != "fresh" || got[1] != "fresh" {
		t.Errorf("received = %v, want [fresh fresh]", got)
	}
	if res.MessagesDuplicated != 2 {
		t.Errorf("duplicated = %d, want 2", res.MessagesDuplicated)
	}
}

func TestInterceptorCrashStopsNode(t *testing.T) {
	g := pathGraph(t, 3)
	itc := &hookInterceptor{crash: func(node int) int64 {
		if node == 2 {
			return 5
		}
		return 0
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(10))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.CrashRound == nil || res.CrashRound[2] != 5 {
		t.Fatalf("CrashRound = %v, want node 2 crashed at 5", res.CrashRound)
	}
	if res.AwakePerNode[2] != 4 {
		t.Errorf("crashed node awake = %d, want 4 (rounds 1..4)", res.AwakePerNode[2])
	}
	if res.AwakePerNode[0] != 10 || res.AwakePerNode[1] != 10 {
		t.Errorf("surviving nodes awake = %d/%d, want 10/10",
			res.AwakePerNode[0], res.AwakePerNode[1])
	}
	// Node 1 keeps sending to the dead node 2 in rounds 5..10.
	if res.MessagesLost != 6 {
		t.Errorf("lost = %d, want 6 (sends to the crashed node)", res.MessagesLost)
	}
}

func TestInterceptorCrashAtRoundOneNeverWakes(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{crash: func(node int) int64 {
		if node == 0 {
			return 1
		}
		return 0
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(2))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.AwakePerNode[0] != 0 {
		t.Errorf("node 0 awake = %d, want 0 (crashed before round 1)", res.AwakePerNode[0])
	}
	if res.CrashRound[0] != 1 {
		t.Errorf("CrashRound[0] = %d, want 1", res.CrashRound[0])
	}
}

func TestInterceptorOversleepClampsSleepUntil(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onWake: func(node int, intended int64) int64 {
		if node == 1 && intended == 1 {
			return 4 // node 1 oversleeps through its planned rounds 1 and 2
		}
		return intended
	}}
	var wokeAt []int64
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, func(nd *Node) error {
		nd.Exchange(nil)
		if nd.Index() == 1 {
			wokeAt = append(wokeAt, nd.Round()-1)
		}
		// A clean node would now be before round 2; the overslept node
		// is already past it and must not panic here.
		nd.SleepUntil(2)
		nd.Exchange(nil)
		if nd.Index() == 1 {
			wokeAt = append(wokeAt, nd.Round()-1)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(wokeAt) != 2 || wokeAt[0] != 4 || wokeAt[1] != 5 {
		t.Errorf("node 1 woke at %v, want [4 5]", wokeAt)
	}
	if res.WakesPerturbed != 1 {
		t.Errorf("WakesPerturbed = %d, want 1", res.WakesPerturbed)
	}
}

// TestInterceptorOversleepLosesMessages: an overslept node misses the
// round, and messages sent to it then are lost.
func TestInterceptorOversleepLosesMessages(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onWake: func(node int, intended int64) int64 {
		if node == 1 && intended == 2 {
			return 3 // node 1 sleeps through round 2
		}
		return intended
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(2))
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

func TestSleepUntilStillPanicsWithoutPerturbation(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{}
	_, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, func(nd *Node) error {
		nd.Exchange(nil)
		nd.SleepUntil(1) // past round: programming error, must still panic
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "cannot sleep until past round") {
		t.Fatalf("err = %v, want sleep-until panic", err)
	}
}

// TestReceiveSideBitCap is the regression test for receive-side
// CONGEST enforcement: a payload that grows after the send-side check
// (here: replaced by the interceptor) must fail the run with an error
// naming the round, the sender, and the port.
func TestReceiveSideBitCap(t *testing.T) {
	g := pathGraph(t, 2)
	itc := &hookInterceptor{onMessage: func(ev *MessageEvent) {
		if ev.Round == 2 && ev.From == 0 {
			ev.Payload = sizedMsg{bits: 999}
			ev.Mutated = true
		}
	}}
	res, err := Run(Config{Graph: g, Seed: 1, BitCap: 64, Interceptor: itc}, chatter(3))
	if err == nil {
		t.Fatal("want bit-cap error, got nil")
	}
	if !errors.Is(err, ErrBitCap) || !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrBitCap wrapped in ErrAborted", err)
	}
	for _, want := range []string{"999-bit", "round 2", "node 0", "port 0", "received"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err.Error(), want)
		}
	}
	if res.MessagesCorrupted != 1 {
		t.Errorf("corrupted = %d, want 1", res.MessagesCorrupted)
	}
}

func TestSendSideBitCapStillEnforced(t *testing.T) {
	g := pathGraph(t, 2)
	for _, itc := range []Interceptor{nil, &hookInterceptor{}, indexOrder(&hookInterceptor{})} {
		_, err := Run(Config{Graph: g, Seed: 1, BitCap: 8, Interceptor: itc}, func(nd *Node) error {
			nd.Exchange(Outbox{0: sizedMsg{bits: 100}})
			return nil
		})
		if !errors.Is(err, ErrBitCap) {
			t.Errorf("interceptor=%v: err = %v, want ErrBitCap", itc != nil, err)
		}
	}
}

func TestTypedErrors(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1, MaxRounds: 3}, func(nd *Node) error {
		for {
			nd.Exchange(nil)
		}
	})
	if !errors.Is(err, ErrRoundCap) {
		t.Errorf("round cap err = %v, want ErrRoundCap", err)
	}
	_, err = Run(Config{Graph: g, Seed: 1, AwakeBudget: 2}, func(nd *Node) error {
		for i := 0; i < 5; i++ {
			nd.Exchange(nil)
		}
		return nil
	})
	if !errors.Is(err, ErrAwakeBudget) {
		t.Errorf("awake budget err = %v, want ErrAwakeBudget", err)
	}
}

// TestIdentityHookBitIdentical: a run under the identity hook must
// produce exactly the event stream of a run with no hook at all, with
// and without ChooseSender — the production path is preserved
// bit-identically under the hook.
func TestIdentityHookBitIdentical(t *testing.T) {
	g := graph.Cycle(4, graph.GenConfig{Seed: 2})
	base := traceLines(t, g, Config{Seed: 3}, chatter(3))
	for _, itc := range []Interceptor{&hookInterceptor{}, indexOrder(&hookInterceptor{})} {
		_, reorders := itc.(senderChooser)
		hooked := traceLines(t, g, Config{Seed: 3, Interceptor: itc}, chatter(3))
		if len(base) != len(hooked) {
			t.Fatalf("ChooseSender=%t: event counts differ: %d vs %d", reorders, len(base), len(hooked))
		}
		for i := range base {
			if base[i] != hooked[i] {
				t.Fatalf("ChooseSender=%t: event %d differs:\n  no hook:       %s\n  identity hook: %s", reorders, i, base[i], hooked[i])
			}
		}
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
	itc := &hookInterceptor{onSender: func(round int64, remaining []int) int {
		calls = append(calls, fmt.Sprintf("r%d:%v", round, remaining))
		return len(remaining) - 1 // route in descending index order
	}}
	res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(1))
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
	itc := &hookInterceptor{onSender: func(round int64, remaining []int) int {
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
	if _, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(pools) != 1 || len(pools[0]) != 2 || pools[0][0] != 0 || pools[0][1] != 2 {
		t.Fatalf("sender pools = %v, want one call with [0 2]", pools)
	}
}

// TestChooserRunsAreDeterministic: two runs with the same replaying
// hook, one whose choices depend on how many calls came before,
// produce identical event streams — the call sequence is a
// deterministic function of the run inputs, which is what the model
// checker's prefix-replay exploration relies on.
func TestChooserRunsAreDeterministic(t *testing.T) {
	g := graph.Complete(4, graph.GenConfig{Seed: 5})
	mk := func() Interceptor {
		step := 0
		return &hookInterceptor{
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
			onMessage: func(ev *MessageEvent) {
				step++
				ev.Drop = step%7 == 0
			},
		}
	}
	a := traceLines(t, g, Config{Seed: 9, Interceptor: mk()}, chatter(3))
	b := traceLines(t, g, Config{Seed: 9, Interceptor: mk()}, chatter(3))
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across replays:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestInterceptedMessagesAllocateNothing: the runtime refills one
// MessageEvent for every intercepted message, so a run under the
// identity hook, with or without ChooseSender, allocates at most a
// small constant more than the same run without a hook (the crash
// table, the sender-order scratch), however many messages it
// intercepts.
func TestInterceptedMessagesAllocateNothing(t *testing.T) {
	g := graph.RandomConnected(256, 768, graph.GenConfig{Seed: 1})
	const rounds = 10 // 2·768·10 = 15,360 intercepted messages
	allocs := func(itc Interceptor) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := Run(Config{Graph: g, Seed: 1, Interceptor: itc}, chatter(rounds))
			if err != nil {
				t.Fatal(err)
			}
			if res.MessagesSent != 2*768*rounds {
				t.Fatalf("sent %d messages, want %d", res.MessagesSent, 2*768*rounds)
			}
		})
	}
	bare := allocs(nil)
	for _, itc := range []Interceptor{&hookInterceptor{}, indexOrder(&hookInterceptor{})} {
		_, reorders := itc.(senderChooser)
		if extra := allocs(itc) - bare; extra > 4 {
			t.Errorf("ChooseSender=%t: the hooked run allocates %.0f more than the bare run, want at most 4", reorders, extra)
		}
	}
}

// listenProbe is a Transport that records whether Run reached Listen.
type listenProbe struct {
	transport.Transport
	listened bool
}

func (l *listenProbe) Listen(n int) error {
	l.listened = true
	return l.Transport.Listen(n)
}

// TestTransportRejectsChooseSender: Run refuses a hook with
// ChooseSender over a Transport before it listens, while a chaos-style
// hook without it runs over the wire with the in-memory Result.
func TestTransportRejectsChooseSender(t *testing.T) {
	g := graph.Cycle(6, graph.GenConfig{Seed: 2})
	prog := func(nd *Node) error {
		for r := 0; r < 4; r++ {
			out := nd.Outbox()
			for p := range out {
				out[p] = kindedMsg{}
			}
			nd.Exchange(out)
		}
		return nil
	}
	tx := &listenProbe{Transport: transport.NewTCP(transport.TCPConfig{})}
	defer tx.Close()
	_, err := Run(Config{Graph: g, Seed: 1, Interceptor: &hookInterceptor{}, Transport: tx}, prog)
	if err == nil || !strings.Contains(err.Error(), "cannot combine Transport") {
		t.Errorf("err = %v, want the Transport guard's error", err)
	}
	if tx.listened {
		t.Error("Run called Transport.Listen before rejecting the hook")
	}

	chaos := chaosHooks{seed: 3}
	want, wantErr := Run(Config{Graph: g, Seed: 1, Interceptor: chaos}, prog)
	got, err := Run(Config{Graph: g, Seed: 1, Interceptor: chaos, Transport: tx}, prog)
	if !tx.listened {
		t.Fatal("the chaos-style run never listened on the Transport")
	}
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Errorf("over the wire: %+v, %v; in memory: %+v, %v", got, err, want, wantErr)
	}
	if want.MessagesDropped+want.MessagesDelayed+want.MessagesDuplicated == 0 {
		t.Error("the chaos-style hook perturbed no message")
	}
}
