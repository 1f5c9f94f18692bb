package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/trace"
)

// The scheduler-digest table pins the low-level surfaces a whole
// algorithm run may never isolate — the call sequence of a hook that
// chooses as the model checker does, every failure path (awake budget,
// round cap, bit cap, program error, panic), and the delayed-message
// machinery — as sha256 digests of each case's trace JSONL, Result
// JSON and error text (plus the chooser row's call log), compared
// against testdata/scheduler_digests.json.
// Every row was produced identically by the event engine and by the
// retired goroutine engine. Regenerate it only for an intended
// behaviour change:
//
//	UPDATE_GOLDEN=1 go test -run TestSchedulerDigests ./internal/sim/

// schedulerDigestsPath is the committed table.
var schedulerDigestsPath = filepath.Join("testdata", "scheduler_digests.json")

// loggingChooser is the chooser row's hook: it records every wake,
// sender and message call in order and perturbs the schedule
// nontrivially — it oversleeps every third park, routes senders in
// descending order, and drops one specific message: node 3's to node
// 2 in round 2 of gossip(8) on ring6, where both are awake.
type loggingChooser struct {
	calls []string
}

func (c *loggingChooser) BeginRun(n int)            {}
func (c *loggingChooser) CrashRound(node int) int64 { return 0 }

func (c *loggingChooser) InterceptWake(node int, intended int64) int64 {
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

func (c *loggingChooser) InterceptMessage(ev *MessageEvent) {
	c.calls = append(c.calls, fmt.Sprintf("fault r%d %d:%d->%d", ev.Round, ev.From, ev.Port, ev.To))
	ev.Drop = ev.Round == 2 && ev.From == 3 && ev.Port == 0
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

// schedulerDigest is one table entry; Calls is set for chooser cases
// only.
type schedulerDigest struct {
	Trace  string `json:"trace"`
	Result string `json:"result"`
	Error  string `json:"error"`
	Calls  string `json:"calls,omitempty"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// schedulerCase is one row of the table: a config, a program and the
// typed failure the run must end in (nil = success, or a plain
// program error/panic when fails is set).
type schedulerCase struct {
	name  string
	cfg   func() Config
	prog  Program
	fails bool
	want  error
}

// schedulerGroup is one subtest group of the table. A case's table key
// is its subtest path under TestSchedulerDigests: "group/name", or just
// "group" for a group's single unnamed case.
type schedulerGroup struct {
	name  string
	cases []schedulerCase
}

func schedulerGroups() []schedulerGroup {
	g40 := graph.RandomConnected(40, 120, graph.GenConfig{Seed: 9})
	ring6 := graph.Cycle(6, graph.GenConfig{Seed: 2})
	path8 := graph.Path(8, graph.GenConfig{Seed: 1})
	return []schedulerGroup{
		{name: "gossip", cases: []schedulerCase{
			{
				name: "clean",
				cfg: func() Config {
					return Config{Graph: g40, Seed: 3, RecordAwakeRounds: true, Metrics: metrics.New()}
				},
				prog: gossip(12),
			},
			{
				name: "delayed",
				cfg: func() Config {
					return Config{Graph: g40, Seed: 3, RecordAwakeRounds: true, Metrics: metrics.New(),
						Interceptor: delayingInterceptor{}}
				},
				prog: gossip(12),
			},
		}},
		{name: "chooser", cases: []schedulerCase{
			{
				cfg:  func() Config { return Config{Graph: ring6, Seed: 4, Interceptor: &loggingChooser{}} },
				prog: gossip(8),
			},
		}},
		{name: "failure", cases: []schedulerCase{
			{
				name:  "awake-budget",
				cfg:   func() Config { return Config{Graph: path8, Seed: 1, AwakeBudget: 3} },
				prog:  gossip(10),
				fails: true,
				want:  ErrAwakeBudget,
			},
			{
				name: "round-cap",
				cfg:  func() Config { return Config{Graph: path8, Seed: 1, MaxRounds: 5} },
				prog: func(nd *Node) error {
					for {
						nd.Exchange(nil)
						nd.SleepUntil(nd.Round() + 3)
					}
				},
				fails: true,
				want:  ErrRoundCap,
			},
			{
				name: "bit-cap",
				cfg:  func() Config { return Config{Graph: path8, Seed: 1, BitCap: 8} },
				prog: func(nd *Node) error {
					out := nd.Outbox()
					if nd.Index() == 3 && nd.Degree() > 0 {
						out[0] = "oversized payload"
					}
					nd.Exchange(out)
					return nil
				},
				fails: true,
				want:  ErrBitCap,
			},
			{
				name: "program-error",
				cfg:  func() Config { return Config{Graph: path8, Seed: 1} },
				prog: func(nd *Node) error {
					nd.Exchange(nil)
					if nd.Index() == 2 {
						return errors.New("node 2 gives up")
					}
					nd.Exchange(nil)
					return nil
				},
				fails: true,
			},
			{
				name: "program-panic",
				cfg:  func() Config { return Config{Graph: path8, Seed: 1} },
				prog: func(nd *Node) error {
					nd.Exchange(nil)
					if nd.Index() == 4 {
						panic("node 4 explodes")
					}
					nd.Exchange(nil)
					return nil
				},
				fails: true,
			},
		}},
	}
}

// runSchedulerCase runs one case with a trace recorder attached and
// reduces it to its digests.
func runSchedulerCase(t *testing.T, tc schedulerCase) schedulerDigest {
	t.Helper()
	cfg := tc.cfg()
	rec := trace.NewRecorder(1 << 14)
	cfg.Trace = rec
	res, err := Run(cfg, tc.prog)
	switch {
	case !tc.fails && err != nil:
		t.Fatalf("run failed: %v", err)
	case tc.fails && err == nil:
		t.Fatal("run succeeded, want a failure")
	case tc.want != nil && !errors.Is(err, tc.want):
		t.Fatalf("got %v, want %v", err, tc.want)
	}
	var tr bytes.Buffer
	if werr := rec.WriteJSONL(&tr); werr != nil {
		t.Fatalf("write trace: %v", werr)
	}
	rj, merr := json.Marshal(res)
	if merr != nil {
		t.Fatalf("marshal result: %v", merr)
	}
	var errText string
	if err != nil {
		errText = err.Error()
	}
	d := schedulerDigest{Trace: sha(tr.Bytes()), Result: sha(rj), Error: sha([]byte(errText))}
	if ch, ok := cfg.Interceptor.(*loggingChooser); ok {
		d.Calls = sha([]byte(strings.Join(ch.calls, "\n")))
		if res.MessagesDropped < 1 {
			t.Errorf("the chooser dropped %d messages, want at least 1", res.MessagesDropped)
		}
	}
	return d
}

// TestSchedulerDigests recomputes every case and compares it with the
// committed table.
func TestSchedulerDigests(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	var want map[string]schedulerDigest
	if !update {
		raw, err := os.ReadFile(schedulerDigestsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", schedulerDigestsPath, err)
		}
	}
	got := make(map[string]schedulerDigest)
	check := func(t *testing.T, key string, tc schedulerCase) {
		d := runSchedulerCase(t, tc)
		got[key] = d
		if update {
			return
		}
		w, ok := want[key]
		if !ok {
			t.Fatalf("computed but missing from %s", schedulerDigestsPath)
		}
		for _, f := range []struct{ name, got, want string }{
			{"trace", d.Trace, w.Trace},
			{"result", d.Result, w.Result},
			{"error", d.Error, w.Error},
			{"calls", d.Calls, w.Calls},
		} {
			if f.got != f.want {
				t.Errorf("%s digest drifted (got %.12s, want %.12s)", f.name, f.got, f.want)
			}
		}
	}
	for _, grp := range schedulerGroups() {
		t.Run(grp.name, func(t *testing.T) {
			for _, tc := range grp.cases {
				if tc.name == "" {
					check(t, grp.name, tc)
					continue
				}
				t.Run(tc.name, func(t *testing.T) { check(t, grp.name+"/"+tc.name, tc) })
			}
		})
	}
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(schedulerDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schedulerDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	cases := make([]string, 0, len(want))
	for name := range want {
		cases = append(cases, name)
	}
	sort.Strings(cases)
	for _, name := range cases {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in the table but not computed", name)
		}
	}
}
