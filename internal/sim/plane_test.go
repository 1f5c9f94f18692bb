package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
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

// kindedMsg is a sized probe payload, registered under a test-range
// kind so its deliveries tally as msgs/type/probe.
type kindedMsg struct{}

func (kindedMsg) Bits() int { return 5 }

func init() {
	transport.Register(transport.Codec{
		Kind: 2, Label: "probe", Type: reflect.TypeOf(kindedMsg{}),
		Encode: func(msg interface{}, w *transport.Writer) {},
		Decode: func(r *transport.Reader) interface{} { return kindedMsg{} },
	})
}

// TestNilSlotIsNotSent: with no hook, under a recorder, and under an
// interceptor with and without ChooseSender, a nil outbox slot is not
// sent, charged, traced, intercepted or tallied.
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
		seen := 0
		hook := &hookInterceptor{onMessage: func(*MessageEvent) { seen++ }}
		switch mode {
		case "trace":
			cfg.Trace = rec
		case "interceptor":
			cfg.Interceptor = indexOrder(hook)
		case "chooser":
			cfg.Interceptor = hook
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
		if cfg.Interceptor != nil && seen != 1 {
			t.Errorf("%s: intercepted %d messages, want 1", mode, seen)
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
// allocations, with or without a metrics registry tallying the
// deliveries by label. Each side is the least of three measurements:
// the process's first GC cycle starts the runtime's background mark
// workers, and their goroutines count as allocations of whichever
// measurement the cycle falls in.
func TestSteadyStateExchangeAllocatesNothing(t *testing.T) {
	g := graph.Cycle(64, graph.GenConfig{Seed: 1})
	for _, reg := range []*metrics.Registry{nil, metrics.New()} {
		allocs := func(rounds int) float64 {
			least := math.Inf(1)
			for try := 0; try < 3; try++ {
				least = min(least, testing.AllocsPerRun(5, func() {
					_, err := Run(Config{Graph: g, Seed: 1, Metrics: reg}, func(nd *Node) error {
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
				}))
			}
			return least
		}
		if short, long := allocs(10), allocs(50); long != short {
			t.Errorf("metrics=%t: 50 rounds allocate %.0f, 10 rounds %.0f: %.2f allocations per extra round, want 0",
				reg != nil, long, short, (long-short)/40)
		}
	}
}

// boxSink keeps Boxed.Of's result alive under AllocsPerRun.
var boxSink interface{}

// TestBoxedBoxesOncePerContent: a value equal to the last one comes
// back in the box made for it, without allocating; a changed value
// gets a fresh box; and a box handed out earlier keeps its old value.
func TestBoxedBoxesOncePerContent(t *testing.T) {
	type msg struct{ frag, level int64 }
	var memo Boxed[msg]
	first := memo.Of(msg{7, 1})
	if allocs := testing.AllocsPerRun(100, func() { boxSink = memo.Of(msg{7, 1}) }); allocs != 0 {
		t.Errorf("an equal value allocates %.0f, want 0", allocs)
	}
	if boxSink != first {
		t.Errorf("an equal value comes back as %v, want %v", boxSink, first)
	}
	if got := memo.Of(msg{9, 2}); got != (msg{9, 2}) {
		t.Errorf("a changed value comes back as %v, want %v", got, msg{9, 2})
	}
	if first != (msg{7, 1}) {
		t.Errorf("the earlier box now holds %v, want %v", first, msg{7, 1})
	}
	level := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		level++
		boxSink = memo.Of(msg{9, level})
	}); allocs != 1 {
		t.Errorf("a value that changes every call allocates %.0f per call, want 1", allocs)
	}
}
