package sim

import (
	"errors"
	"strings"
	"testing"
)

// hookInterceptor is a test interceptor assembled from closures; nil
// fields are no-ops.
type hookInterceptor struct {
	onMessage func(ev *MessageEvent)
	onWake    func(node int, intended int64) int64
	crash     func(node int) int64
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
	for _, itc := range []Interceptor{nil, &hookInterceptor{}} {
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
