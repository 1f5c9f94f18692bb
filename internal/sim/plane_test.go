package sim

import (
	"strings"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/trace"
)

// Contract tests for the port-indexed message plane (DESIGN §12.5):
// a nil slot means no message, the inbox is a runtime-owned buffer of
// length Degree() leased until the next Exchange, an outbox may not
// outgrow the port table, and a steady-state exchange round allocates
// nothing.

func TestInboxHasDegreeLengthWhenEmpty(t *testing.T) {
	g := graph.Star(5, graph.GenConfig{Seed: 3})
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		for i := 0; i < 2; i++ {
			in := nd.Exchange(nil)
			if len(in) != nd.Degree() {
				t.Errorf("node %d: inbox length %d, want degree %d", nd.Index(), len(in), nd.Degree())
			}
			for p, msg := range in {
				if msg != nil {
					t.Errorf("node %d: port %d holds %v in a silent round", nd.Index(), p, msg)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// kindedMsg is a sized, kinded probe payload.
type kindedMsg struct{}

func (kindedMsg) Bits() int       { return 5 }
func (kindedMsg) MsgKind() string { return "probe" }

// countingInterceptor counts the messages it sees and perturbs nothing.
type countingInterceptor struct{ seen int }

func (c *countingInterceptor) BeginRun(n int)                               {}
func (c *countingInterceptor) InterceptMessage(ev *MessageEvent)            { c.seen++ }
func (c *countingInterceptor) InterceptWake(node int, intended int64) int64 { return intended }
func (c *countingInterceptor) CrashRound(node int) int64                    { return 0 }

// TestNilSlotIsNotSent: on every delivery path (the bare fast path,
// and the full path under a recorder, an interceptor and a chooser) a
// nil outbox slot is not sent, charged, traced, intercepted, offered as
// a fault point or tallied.
func TestNilSlotIsNotSent(t *testing.T) {
	g := pathGraph(t, 3) // node 1 is the middle, with two ports
	prog := func(nd *Node) error {
		out := nd.Outbox()
		if nd.Index() == 1 {
			out[1] = kindedMsg{} // port 0 stays nil
		}
		in := nd.Exchange(out)
		got := 0
		for _, msg := range in {
			if msg != nil {
				got++
			}
		}
		if nd.Index() == 1 && got != 0 {
			t.Errorf("silent neighbors delivered %d message(s) to node 1", got)
		}
		return nil
	}
	for _, mode := range []string{"bare", "trace", "interceptor", "chooser"} {
		reg := metrics.New()
		cfg := Config{Graph: g, Seed: 1, Metrics: reg}
		rec := trace.NewRecorder(0)
		itc := &countingInterceptor{}
		faults := 0
		switch mode {
		case "trace":
			cfg.Trace = rec
		case "interceptor":
			cfg.Interceptor = itc
		case "chooser":
			cfg.Chooser = &hookChooser{onFault: func(int64, int, int, int) bool { faults++; return false }}
		}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.MessagesSent != 1 || res.MessagesDelivered != 1 || res.BitsSent != 5 {
			t.Errorf("%s: sent=%d delivered=%d bits=%d, want 1/1/5",
				mode, res.MessagesSent, res.MessagesDelivered, res.BitsSent)
		}
		if got := reg.Get(metrics.MsgName("probe")); got != 1 {
			t.Errorf("%s: probe tally %d, want 1", mode, got)
		}
		if mode == "trace" {
			sends := 0
			for _, ev := range rec.Events() {
				if ev.Kind == trace.KindSend {
					sends++
				}
			}
			if sends != 1 {
				t.Errorf("trace: %d send events, want 1", sends)
			}
		}
		if mode == "interceptor" && itc.seen != 1 {
			t.Errorf("interceptor: intercepted %d messages, want 1", itc.seen)
		}
		if mode == "chooser" && faults != 1 {
			t.Errorf("chooser: %d fault choice points, want 1", faults)
		}
	}
}

func TestOverlongOutboxFails(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		out := make(Outbox, nd.Degree()+2)
		out[nd.Degree()+1] = "x"
		nd.Exchange(out)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sends on invalid port 2 (degree 1)") {
		t.Errorf("err = %v, want the invalid-port failure naming port 2", err)
	}
}

// TestInboxLeaseEndsAtNextExchange: Exchange hands out the same
// runtime-owned buffer every round, and the next Exchange clears it —
// a program holding on to an old inbox sees this round's state, not
// the old messages.
func TestInboxLeaseEndsAtNextExchange(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		first := nd.Exchange(Outbox{nd.Index()})
		if first[0] != 1-nd.Index() {
			t.Errorf("node %d: round 1 got %v", nd.Index(), first[0])
		}
		second := nd.Exchange(nil)
		if &first[0] != &second[0] {
			t.Errorf("node %d: Exchange returned a fresh inbox, want the reused buffer", nd.Index())
		}
		if first[0] != nil {
			t.Errorf("node %d: old inbox still holds %v after the next Exchange", nd.Index(), first[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateExchangeAllocatesNothing: a Transmit-Adjacent style
// round on a ring — every node wakes, sends one pre-boxed message on
// every port and reads its inbox, then sleeps a round — allocates
// nothing once the run is set up: forty extra rounds cost zero
// allocations.
func TestSteadyStateExchangeAllocatesNothing(t *testing.T) {
	g := graph.Cycle(64, graph.GenConfig{Seed: 1})
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
				msg := interface{}(kindedMsg{})
				for r := 0; r < rounds; r++ {
					out := nd.Outbox()
					for p := range out {
						out[p] = msg
					}
					for _, got := range nd.Exchange(out) {
						if got == nil {
							t.Error("a ring neighbor's message is missing")
						}
					}
					nd.SleepUntil(nd.Round() + 1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(50); long != short {
		t.Errorf("50 rounds allocate %.0f, 10 rounds %.0f: %.2f allocations per extra round, want 0",
			long, short, (long-short)/40)
	}
}
