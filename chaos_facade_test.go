package sleepmst

import (
	"testing"

	"sleepmst/internal/chaos"
)

// TestChaosFacade exercises the full chaos surface through the
// re-exports: a clean sweep, a perturbed sweep, and a single
// classified run.
func TestChaosFacade(t *testing.T) {
	g := RandomConnected(24, 60, 5)
	res, err := ChaosSweep(ChaosSweepConfig{
		Graph:    g,
		Runners:  ChaosRunners(Randomized, Baseline),
		Fault:    FaultDrop,
		Rates:    []float64{0, 0.1},
		Seeds:    2,
		BaseSeed: 1,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Rate == 0 && c.Counts[chaos.CorrectMST.String()] != c.Runs {
			t.Errorf("rate-0 cell %s: %v", c.Algorithm, c.Counts)
		}
	}

	policy := NewChaosPolicy(ChaosOptions{Seed: 9, Crash: []CrashEvent{{Node: 1, Round: 3}}})
	out, err := Randomized.Runner()(g, Options{Seed: 2, Interceptor: policy})
	if got := ClassifyRun(g, out, err); got == chaos.CorrectMST {
		t.Errorf("crashed run classified %v", got)
	}

	rep, err := Run(Randomized, g, Options{Seed: 2})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if got := ClassifyRun(g, rep.Outcome, nil); got != chaos.CorrectMST {
		t.Errorf("clean run classified %v, want %v", got, chaos.CorrectMST)
	}
}
