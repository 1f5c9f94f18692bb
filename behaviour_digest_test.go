package sleepmst

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sleepmst/internal/chaos"
	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// The behaviour-digest table: the program-side behaviour contract. For
// every registered problem × n ∈ digestSizes × {clean, chaos, faults},
// one fixed-seed run is reduced to sha256 digests of its four
// deterministic surfaces — the trace JSONL, the conform verdict JSON,
// the run's metrics registry and the sim.Result counters — plus the
// oracle's outcome class, and compared against
// testdata/behaviour_digests.json. The table pins what the node
// programs and the scheduler do together, so a refactor of the message
// plane, the LDT primitives or the scheduler that shifts one awake
// round anywhere fails here. Every row was produced identically by the
// event engine and by the retired goroutine engine. Regenerate it only
// for an intended behaviour change:
//
//	UPDATE_GOLDEN=1 go test -run TestBehaviourDigests .

// digestSizes is the node-count axis; n=256 cells are skipped under
// -short.
var digestSizes = []int{4, 16, 64, 256}

// behaviourDigestsPath is the committed table.
var behaviourDigestsPath = filepath.Join("testdata", "behaviour_digests.json")

// cellDigest is one table entry.
type cellDigest struct {
	Trace   string `json:"trace"`
	Verdict string `json:"verdict"`
	Metrics string `json:"metrics"`
	Result  string `json:"result"`
	Outcome string `json:"outcome"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digestChaos is the chaos cell's fault policy, calibrated against the
// clean run's message count: one expected drop and one expected delay
// per run — enough to exercise the loss and late-delivery paths in most
// cells without turning every run into an early abort.
func digestChaos(cleanMessages int64) *chaos.Policy {
	rate := 1 / float64(cleanMessages)
	return chaos.New(chaos.Options{Seed: 7, DropRate: rate, DelayRate: rate})
}

// digestFaults is the faults cell's policy: every fault process at
// once — drops, delays, duplicates, oversleep and crash-stop — at fixed
// rates, so the duplicate, oversleep and crash paths of the scheduler
// are pinned too. Most of these runs abort or build a wrong tree; the
// digests pin exactly how.
func digestFaults() *chaos.Policy {
	return chaos.New(chaos.Options{
		Seed:          7,
		DropRate:      0.02,
		DelayRate:     0.03,
		DupRate:       0.02,
		OversleepRate: 0.02,
		CrashFrac:     0.1,
	})
}

// digestCell runs one cell and reduces it to its digests; it also
// returns the run's message count so the chaos cell can calibrate.
func digestCell(t *testing.T, p problem.Problem, g *graph.Graph, itc *chaos.Policy) (cellDigest, int64) {
	t.Helper()
	rec := trace.NewRecorder(0)
	reg := metrics.New()
	opts := core.Options{Seed: 1, RecordAwakeRounds: true, Trace: rec, Metrics: reg}
	if itc != nil {
		opts.Interceptor = itc
	}
	r, err := p.Run(g, opts)

	var tr bytes.Buffer
	if werr := rec.WriteJSONL(&tr); werr != nil {
		t.Fatalf("%s: write trace: %v", p.Name(), werr)
	}
	suite := conform.Suite{
		Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: 1, Budget: p.Budget},
		Meta:   rec.Meta(),
		Events: rec.Events(),
	}
	if r != nil {
		suite.Extra = []conform.Check{p.ConformCheck(g, r)}
	}
	var vj bytes.Buffer
	if werr := suite.Verdict().WriteJSON(&vj); werr != nil {
		t.Fatalf("%s: write verdict: %v", p.Name(), werr)
	}
	var msgs int64
	res := []byte("null")
	if r != nil {
		msgs = r.Sim.MessagesSent
		var merr error
		if res, merr = json.Marshal(r.Sim); merr != nil {
			t.Fatalf("%s: marshal result: %v", p.Name(), merr)
		}
	}
	var outcome string
	if p.Name() == "mis" {
		var inMIS []bool
		if r != nil {
			inMIS = r.InMIS
		}
		outcome = chaos.ClassifyMIS(g, inMIS, err).String()
	} else {
		var out *core.Outcome
		if r != nil {
			out = r.Outcome
		}
		outcome = chaos.Classify(g, out, err).String()
	}
	return cellDigest{
		Trace:   sha(tr.Bytes()),
		Verdict: sha(vj.Bytes()),
		Metrics: sha([]byte(reg.String())),
		Result:  sha(res),
		Outcome: outcome,
	}, msgs
}

// TestBehaviourDigests recomputes every cell, one subtest per cell,
// and compares it with the committed table.
func TestBehaviourDigests(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if update && testing.Short() {
		t.Fatal("UPDATE_GOLDEN needs every cell; run without -short")
	}
	var want map[string]cellDigest
	if !update {
		raw, err := os.ReadFile(behaviourDigestsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", behaviourDigestsPath, err)
		}
	}
	got := make(map[string]cellDigest)
	for _, name := range problem.Names() {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range digestSizes {
			if testing.Short() && n > 64 {
				continue
			}
			g := graph.RandomConnected(n, 3*n, graph.GenConfig{Seed: int64(n)})
			var cleanMsgs int64 // calibrates the chaos cell
			for _, mode := range []string{"clean", "chaos", "faults"} {
				cell := fmt.Sprintf("%s/n=%d/%s", name, n, mode)
				t.Run(cell, func(t *testing.T) {
					var itc *chaos.Policy
					switch mode {
					case "chaos":
						if cleanMsgs == 0 {
							t.Fatal("clean run sent no messages")
						}
						itc = digestChaos(cleanMsgs)
					case "faults":
						itc = digestFaults()
					}
					d, msgs := digestCell(t, p, g, itc)
					if mode == "clean" {
						cleanMsgs = msgs
					}
					got[cell] = d
					if update {
						return
					}
					w, ok := want[cell]
					if !ok {
						t.Fatalf("computed but missing from %s", behaviourDigestsPath)
					}
					for _, f := range []struct{ name, got, want string }{
						{"trace", d.Trace, w.Trace},
						{"verdict", d.Verdict, w.Verdict},
						{"metrics", d.Metrics, w.Metrics},
						{"result", d.Result, w.Result},
						{"outcome", d.Outcome, w.Outcome},
					} {
						if f.got != f.want {
							t.Errorf("%s digest drifted (got %.12s, want %.12s)", f.name, f.got, f.want)
						}
					}
				})
			}
		}
	}
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(behaviourDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		return
	}
	cells := make([]string, 0, len(want))
	for cell := range want {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	for _, cell := range cells {
		if _, ok := got[cell]; !ok {
			t.Errorf("%s: in the table but not computed", cell)
		}
	}
}
