// MIS conformance matrix: the problem suite's MIS resident, at n ∈
// {16, 64, 256}, must satisfy the strict invariant catalog plus the
// mis-valid oracle on a clean run, and the relaxed catalog (plus the
// MIS chaos oracle's correct-mis verdict) under calibrated drop and
// delay injection — the same matrix shape internal/core pins for the
// MST algorithms. An external test package so it exercises the facade
// and registry the way sleepsim and mstbench do.
package problem_test

import (
	"bytes"
	"fmt"
	"testing"

	"sleepmst"
	"sleepmst/internal/chaos"
	"sleepmst/internal/conform"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// conformCap is the recorder capacity used by the matrix: big enough
// that no n=256 cell drops events (drops would skip most checks).
const conformCap = 1 << 21

// conformSizes is the node-count axis of the matrix. n=256 cells are
// skipped in -short mode.
var conformSizes = []int{16, 64, 256}

// conformGraph is the matrix topology: random connected, average
// degree 6, one deterministic instance per size — the same family the
// MST matrix uses, so envelope constants are comparable.
func conformGraph(n int) *sleepmst.Graph {
	return sleepmst.RandomConnected(n, 3*n, int64(n*1000))
}

// TestMISConformanceCleanMatrix runs the strict catalog — no slack,
// no relaxations — on drop-free MIS traces, and demands that both the
// awake-budget envelope and the mis-valid oracle are exercised (not
// skipped) in every cell.
func TestMISConformanceCleanMatrix(t *testing.T) {
	p, err := problem.Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range conformSizes {
		n := n
		t.Run(fmt.Sprintf("mis/n=%d", n), func(t *testing.T) {
			if testing.Short() && n > 64 {
				t.Skip("n=256 cell skipped in short mode")
			}
			c, err := problem.Certify(p, conformGraph(n), sleepmst.Options{Seed: 1}, nil)
			if err != nil {
				t.Fatalf("mis n=%d: %v", n, err)
			}
			if !c.Verdict.Pass {
				t.Errorf("strict conformance failed:\n%s", c.Verdict)
			}
			for _, name := range []string{conform.CheckAwakeBudget, conform.CheckMISValid} {
				if ch := c.Verdict.Lookup(name); ch == nil || ch.Status != conform.StatusPass {
					t.Errorf("%s not exercised: %+v", name, ch)
				}
			}
		})
	}
}

// conformFaults is the fault axis: message drops and message delays,
// both at a per-cell calibrated rate (~0.5 injected faults per run,
// matching the MST matrix calibration).
var conformFaults = []struct {
	name string
	opts func(rate float64, seed int64) chaos.Options
}{
	{"drop", func(rate float64, seed int64) chaos.Options {
		return chaos.Options{Seed: seed, DropRate: rate}
	}},
	{"delay", func(rate float64, seed int64) chaos.Options {
		return chaos.Options{Seed: seed, DelayRate: rate, MaxDelay: 2}
	}},
}

// TestMISConformanceChaosMatrix injects calibrated drops/delays into
// every cell and asserts the MIS oracle still reports correct-mis and
// the relaxed catalog passes. Chaos seeds are searched the same way
// the MST matrix does, absorbing drift in message counts.
func TestMISConformanceChaosMatrix(t *testing.T) {
	p, err := problem.Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range conformSizes {
		for _, fault := range conformFaults {
			n, fault := n, fault
			t.Run(fmt.Sprintf("mis/n=%d/%s", n, fault.name), func(t *testing.T) {
				if testing.Short() && n > 64 {
					t.Skip("n=256 cell skipped in short mode")
				}
				g := conformGraph(n)
				clean, err := p.Run(g, sleepmst.Options{Seed: 1})
				if err != nil {
					t.Fatalf("clean run: %v", err)
				}
				rate := 0.5 / float64(clean.Sim.MessagesSent)
				for seed := int64(1); seed <= 12; seed++ {
					pol := chaos.New(fault.opts(rate, seed))
					rec := trace.NewRecorder(conformCap)
					r, err := p.Run(g, sleepmst.Options{Seed: 1, Trace: rec, Interceptor: pol})
					var inMIS []bool
					if r != nil {
						inMIS = r.InMIS
					}
					if chaos.ClassifyMIS(g, inMIS, err) != chaos.CorrectMIS {
						continue
					}
					if seed > 2 {
						t.Logf("surviving chaos seed drifted to %d (calibrated ≤ 2)", seed)
					}
					conform.Suite{
						Info: conform.RunInfo{Algorithm: p.Name(), N: n, Seed: 1, Budget: p.Budget,
							Relaxed: true, BudgetSlack: 2},
						Meta:   rec.Meta(),
						Events: rec.Events(),
						Extra:  []conform.Check{p.ConformCheck(g, r)},
					}.Assert(t)
					return
				}
				t.Fatalf("no chaos seed in 1..12 yields correct-mis at rate %.3g", rate)
			})
		}
	}
}

// TestMISFixedSeedReplayBitIdentical is the replay half of the matrix
// contract: the same (graph, seed) cell run twice in-process must
// produce byte-identical JSONL traces and identical membership
// vectors.
func TestMISFixedSeedReplayBitIdentical(t *testing.T) {
	p, err := problem.Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 64} {
		g := conformGraph(n)
		run := func() ([]byte, []bool) {
			rec := trace.NewRecorder(conformCap)
			r, err := p.Run(g, sleepmst.Options{Seed: 3, Trace: rec})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatalf("n=%d: write: %v", n, err)
			}
			return buf.Bytes(), r.InMIS
		}
		firstTrace, firstSet := run()
		secondTrace, secondSet := run()
		if !bytes.Equal(firstTrace, secondTrace) {
			t.Errorf("n=%d: MIS trace not reproducible across runs", n)
		}
		for v := range firstSet {
			if firstSet[v] != secondSet[v] {
				t.Errorf("n=%d: node %d membership differs across replays", n, v)
			}
		}
	}
}
