package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/trace"
)

// Scheduler-level differential tests: the problem-suite harness
// (internal/problem/enginediff_test.go) proves the engines agree on
// whole algorithm runs; the tests here pin the low-level surfaces a
// full run may never isolate — the Chooser call sequence, the failure
// paths (awake budget, round cap, bit cap, program error, panic), and
// the delayed-message machinery — on both engines.

// loggingChooser records every hook call in order and perturbs the
// schedule nontrivially: it oversleeps every third park, routes
// senders in descending order, and drops one specific message.
type loggingChooser struct {
	calls []string
}

func (c *loggingChooser) ChooseWake(node int, intended int64) int64 {
	c.calls = append(c.calls, fmt.Sprintf("wake %d@%d", node, intended))
	if node%3 == 2 {
		return intended + 1
	}
	return intended
}

func (c *loggingChooser) ChooseSender(round int64, remaining []int) int {
	c.calls = append(c.calls, fmt.Sprintf("send r%d %v", round, remaining))
	return len(remaining) - 1
}

func (c *loggingChooser) ChooseFault(round int64, from, port, to int) bool {
	c.calls = append(c.calls, fmt.Sprintf("fault r%d %d:%d->%d", round, from, port, to))
	return round == 2 && from == 1 && port == 0
}

// delayingInterceptor exercises the delay/dup machinery with
// coordinate-keyed (stateless) decisions.
type delayingInterceptor struct{}

func (delayingInterceptor) BeginRun(n int) {}
func (delayingInterceptor) InterceptMessage(ev *MessageEvent) {
	switch {
	case ev.Round%5 == 1 && ev.Port == 0:
		ev.Delay = 2
	case ev.Round%7 == 2:
		ev.Duplicate = 1
	}
}
func (delayingInterceptor) InterceptWake(node int, intended int64) int64 {
	if node%4 == 1 && intended%6 == 3 {
		return intended + 2
	}
	return intended
}
func (delayingInterceptor) CrashRound(node int) int64 {
	if node == 5 {
		return 9
	}
	return 0
}

// gossip is a small synthetic program with data-dependent sleeps: each
// node relays the max index it has heard for a few awake rounds,
// sleeping (idx mod 3) rounds between exchanges.
func gossip(rounds int) Program {
	return func(nd *Node) error {
		best := nd.Index()
		for i := 0; i < rounds; i++ {
			out := nd.Outbox()
			for p := 0; p < nd.Degree(); p++ {
				out[p] = best
			}
			in := nd.Exchange(out)
			for _, v := range in {
				if v == nil {
					continue
				}
				if got := v.(int); got > best {
					best = got
				}
			}
			nd.SleepUntil(nd.Round() + int64(nd.Index()%3))
		}
		return nil
	}
}

// diffRun executes one config on both engines (everything but Engine
// shared) and returns the per-engine artifacts.
func diffRun(t *testing.T, mk func() Config, prog Program) (gor, evt *Result, gorErr, evtErr error, gorTrace, evtTrace []byte) {
	t.Helper()
	run := func(e Engine) (*Result, error, []byte) {
		cfg := mk()
		cfg.Engine = e
		rec := trace.NewRecorder(1 << 14)
		cfg.Trace = rec
		res, err := Run(cfg, prog)
		var buf bytes.Buffer
		if werr := rec.WriteJSONL(&buf); werr != nil {
			t.Fatalf("write trace: %v", werr)
		}
		return res, err, buf.Bytes()
	}
	gor, gorErr, gorTrace = run(EngineGoroutine)
	evt, evtErr, evtTrace = run(EngineEvent)
	return
}

func TestEngineDiffGossipCleanAndChaos(t *testing.T) {
	g := graph.RandomConnected(40, 120, graph.GenConfig{Seed: 9})
	for _, chaotic := range []bool{false, true} {
		name := "clean"
		if chaotic {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() Config {
				cfg := Config{Graph: g, Seed: 3, RecordAwakeRounds: true, Metrics: metrics.New()}
				if chaotic {
					cfg.Interceptor = delayingInterceptor{}
				}
				return cfg
			}
			gor, evt, gorErr, evtErr, gorTrace, evtTrace := diffRun(t, mk, gossip(12))
			if gorErr != nil || evtErr != nil {
				t.Fatalf("errors: goroutine=%v event=%v", gorErr, evtErr)
			}
			if !bytes.Equal(gorTrace, evtTrace) {
				t.Error("trace JSONL diverges")
			}
			if !reflect.DeepEqual(gor, evt) {
				t.Errorf("results diverge:\ngoroutine: %+v\nevent:     %+v", gor, evt)
			}
		})
	}
}

// TestEngineDiffChooserCallSequence proves the Chooser decision points
// enumerate identically on both engines — the property the model
// checker's positional replay depends on.
func TestEngineDiffChooserCallSequence(t *testing.T) {
	g := graph.Cycle(6, graph.GenConfig{Seed: 2})
	run := func(e Engine) (*loggingChooser, *Result, error) {
		ch := &loggingChooser{}
		res, err := Run(Config{Graph: g, Seed: 4, Engine: e, Chooser: ch}, gossip(8))
		return ch, res, err
	}
	gorCh, gorRes, gorErr := run(EngineGoroutine)
	evtCh, evtRes, evtErr := run(EngineEvent)
	if gorErr != nil || evtErr != nil {
		t.Fatalf("errors: goroutine=%v event=%v", gorErr, evtErr)
	}
	if !reflect.DeepEqual(gorCh.calls, evtCh.calls) {
		for i := 0; i < len(gorCh.calls) && i < len(evtCh.calls); i++ {
			if gorCh.calls[i] != evtCh.calls[i] {
				t.Fatalf("chooser call %d diverges: goroutine %q, event %q", i, gorCh.calls[i], evtCh.calls[i])
			}
		}
		t.Fatalf("chooser call counts diverge: goroutine %d, event %d", len(gorCh.calls), len(evtCh.calls))
	}
	if !reflect.DeepEqual(gorRes, evtRes) {
		t.Errorf("results diverge:\ngoroutine: %+v\nevent:     %+v", gorRes, evtRes)
	}
}

// TestEngineDiffFailurePaths drives each abort cause on both engines
// and demands the same typed error and the same partial result.
func TestEngineDiffFailurePaths(t *testing.T) {
	g := graph.Path(8, graph.GenConfig{Seed: 1})
	cases := []struct {
		name string
		mk   func() Config
		prog Program
		want error
	}{
		{
			name: "awake-budget",
			mk:   func() Config { return Config{Graph: g, Seed: 1, AwakeBudget: 3} },
			prog: gossip(10),
			want: ErrAwakeBudget,
		},
		{
			name: "round-cap",
			mk:   func() Config { return Config{Graph: g, Seed: 1, MaxRounds: 5} },
			prog: func(nd *Node) error {
				for {
					nd.Exchange(nil)
					nd.SleepUntil(nd.Round() + 3)
				}
			},
			want: ErrRoundCap,
		},
		{
			name: "bit-cap",
			mk:   func() Config { return Config{Graph: g, Seed: 1, BitCap: 8} },
			prog: func(nd *Node) error {
				out := nd.Outbox()
				if nd.Index() == 3 && nd.Degree() > 0 {
					out[0] = "oversized payload"
				}
				nd.Exchange(out)
				return nil
			},
			want: ErrBitCap,
		},
		{
			name: "program-error",
			mk:   func() Config { return Config{Graph: g, Seed: 1} },
			prog: func(nd *Node) error {
				nd.Exchange(nil)
				if nd.Index() == 2 {
					return errors.New("node 2 gives up")
				}
				nd.Exchange(nil)
				return nil
			},
			want: nil, // plain program error, no sentinel
		},
		{
			name: "program-panic",
			mk:   func() Config { return Config{Graph: g, Seed: 1} },
			prog: func(nd *Node) error {
				nd.Exchange(nil)
				if nd.Index() == 4 {
					panic("node 4 explodes")
				}
				nd.Exchange(nil)
				return nil
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gor, evt, gorErr, evtErr, gorTrace, evtTrace := diffRun(t, tc.mk, tc.prog)
			if gorErr == nil || evtErr == nil {
				t.Fatalf("want failure on both engines, got goroutine=%v event=%v", gorErr, evtErr)
			}
			if tc.want != nil {
				if !errors.Is(gorErr, tc.want) || !errors.Is(evtErr, tc.want) {
					t.Fatalf("want %v on both engines, got goroutine=%v event=%v", tc.want, gorErr, evtErr)
				}
			}
			// Only one node fails in each case, so even the error text —
			// nondeterministic when several nodes fail in one batch under
			// the goroutine engine — must agree here.
			if gorErr.Error() != evtErr.Error() {
				t.Errorf("error text diverges:\ngoroutine: %v\nevent:     %v", gorErr, evtErr)
			}
			if !bytes.Equal(gorTrace, evtTrace) {
				t.Error("trace JSONL diverges")
			}
			if !reflect.DeepEqual(gor, evt) {
				t.Errorf("partial results diverge:\ngoroutine: %+v\nevent:     %+v", gor, evt)
			}
		})
	}
}

// TestEngineParse pins the CLI spellings.
func TestEngineParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"event", EngineEvent, true},
		{"", EngineEvent, true},
		{"goroutine", EngineGoroutine, true},
		{"threads", 0, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if EngineEvent.String() != "event" || EngineGoroutine.String() != "goroutine" {
		t.Errorf("String spellings drifted: %q %q", EngineEvent, EngineGoroutine)
	}
	if bad := Engine(42); bad.valid() {
		t.Error("Engine(42) must be invalid")
	}
}
