package core

import (
	"math"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/trace"
)

func TestDeterministicMSTPath(t *testing.T) {
	g := graph.Path(10, graph.GenConfig{Seed: 1})
	checkMST(t, g, RunDeterministic, Options{Seed: 1})
}

func TestDeterministicMSTCycle(t *testing.T) {
	g := graph.Cycle(12, graph.GenConfig{Seed: 2})
	checkMST(t, g, RunDeterministic, Options{Seed: 2})
}

func TestDeterministicMSTStar(t *testing.T) {
	g := graph.Star(9, graph.GenConfig{Seed: 3})
	checkMST(t, g, RunDeterministic, Options{Seed: 3})
}

func TestDeterministicMSTComplete(t *testing.T) {
	g := graph.Complete(12, graph.GenConfig{Seed: 4})
	checkMST(t, g, RunDeterministic, Options{Seed: 4})
}

func TestDeterministicMSTGrid(t *testing.T) {
	g := graph.Grid(5, 6, graph.GenConfig{Seed: 5})
	checkMST(t, g, RunDeterministic, Options{Seed: 5})
}

func TestDeterministicMSTRandomGraphsManySeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomConnected(40, 100, graph.GenConfig{Seed: seed})
		out := checkMST(t, g, RunDeterministic, Options{Seed: seed})
		if out.Phases > DeterministicPhaseBound(g.N()) {
			t.Errorf("seed %d: %d phases exceeds bound", seed, out.Phases)
		}
	}
}

func TestDeterministicMSTRandomLargeIDs(t *testing.T) {
	// IDs drawn from [1, 8n]: the round complexity depends on N = max
	// ID, but correctness and awake complexity must be unaffected.
	g := graph.RandomConnected(30, 70, graph.GenConfig{Seed: 6})
	graph.RandomIDs(g, 8*int64(g.N()), 99)
	out := checkMST(t, g, RunDeterministic, Options{Seed: 6})
	if out.Result.MaxAwake() > 40*int64(math.Log2(float64(g.N()))+1) {
		t.Errorf("awake complexity %d too large", out.Result.MaxAwake())
	}
}

func TestDeterministicMSTTieBrokenWeights(t *testing.T) {
	g := graph.Complete(8, graph.GenConfig{Seed: 7, Weights: graph.WeightsUnit})
	checkMST(t, g, RunDeterministic, Options{Seed: 7})
}

func TestDeterministicIsSeedIndependent(t *testing.T) {
	// A deterministic algorithm must produce identical executions for
	// different seeds (the seed only feeds unused randomness).
	g := graph.RandomConnected(36, 90, graph.GenConfig{Seed: 8})
	a, err := RunDeterministic(g, Options{Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := RunDeterministic(g, Options{Seed: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Result.Rounds != b.Result.Rounds || a.Phases != b.Phases ||
		a.Result.MaxAwake() != b.Result.MaxAwake() ||
		a.Result.MessagesSent != b.Result.MessagesSent {
		t.Errorf("executions differ across seeds: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.Result.Rounds, a.Phases, a.Result.MaxAwake(), a.Result.MessagesSent,
			b.Result.Rounds, b.Phases, b.Result.MaxAwake(), b.Result.MessagesSent)
	}
}

func TestDeterministicAwakeComplexityLogarithmic(t *testing.T) {
	ratio := func(n int) float64 {
		g := graph.RandomConnected(n, 3*n, graph.GenConfig{Seed: int64(n)})
		out, err := RunDeterministic(g, Options{Seed: 0})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return float64(out.Result.MaxAwake()) / math.Log2(float64(n))
	}
	small, large := ratio(32), ratio(256)
	if large > 2*small {
		t.Errorf("awake/log2(n) grew from %.2f to %.2f; not logarithmic", small, large)
	}
}

func TestDeterministicRoundComplexityScalesWithN(t *testing.T) {
	// With IDs in [1, N], doubling the ID space must roughly double
	// the rounds (the O(nN log n) dependence on N).
	g1 := graph.RandomConnected(24, 60, graph.GenConfig{Seed: 9})
	out1, err := RunDeterministic(g1, Options{Seed: 0})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g2 := graph.RandomConnected(24, 60, graph.GenConfig{Seed: 9})
	graph.RandomIDs(g2, 4*int64(g2.N()), 5)
	out2, err := RunDeterministic(g2, Options{Seed: 0})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out2.Result.Rounds <= out1.Result.Rounds {
		t.Errorf("rounds did not grow with ID space: N=n gave %d, N=4n gave %d",
			out1.Result.Rounds, out2.Result.Rounds)
	}
}

func TestDeterministicRespectsBitCap(t *testing.T) {
	g := graph.RandomConnected(32, 80, graph.GenConfig{Seed: 10})
	if _, err := RunDeterministic(g, Options{Seed: 0, BitCap: DefaultBitCap(g)}); err != nil {
		t.Fatalf("run with CONGEST bit cap: %v", err)
	}
}

func TestDeterministicFragmentDecayMonotone(t *testing.T) {
	g := graph.RandomConnected(60, 150, graph.GenConfig{Seed: 11})
	out, err := RunDeterministic(g, Options{Seed: 0, RecordPhases: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	counts := out.FragmentsPerPhase
	if len(counts) == 0 || counts[len(counts)-1] != 1 {
		t.Fatalf("fragment counts = %v, want monotone to 1", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] && counts[i-1] != 1 {
			t.Errorf("phase %d: fragments %d -> %d did not strictly decrease", i, counts[i-1], counts[i])
		}
	}
}

func TestDeterministicSingleAndTwoNodes(t *testing.T) {
	g1 := graph.MustNew(1, nil)
	if _, err := RunDeterministic(g1, Options{}); err != nil {
		t.Fatalf("n=1: %v", err)
	}
	g2 := graph.Path(2, graph.GenConfig{Seed: 12})
	checkMST(t, g2, RunDeterministic, Options{})
}

func TestColorString(t *testing.T) {
	for c, want := range map[Color]string{Blue: "blue", Red: "red", Orange: "orange", Black: "black", Green: "green", ColorNone: "none"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

// TestValidateBlockWakesOnlyMOEEndpoints: in the accept/reject
// Transmit-Adjacent block (dbTAValid) of the deterministic algorithms
// only MOE endpoints may wake — the hosts of incoming MOEs, which send
// a notice, and MOE owners, which receive one. A port-indexed outbox
// always has length Degree(), so a wake test on its length instead of
// its contents would wake every node.
func TestValidateBlockWakesOnlyMOEEndpoints(t *testing.T) {
	g := graph.RandomConnected(64, 192, graph.GenConfig{Seed: 64})
	blk := ldt.BlockLen(g.N())
	side := int64(dbTAValid)*blk + int64(g.N()) // offset of the block's side round in a phase
	for _, tc := range []struct {
		name        string
		run         func(*graph.Graph, Options) (*Outcome, error)
		phaseBlocks int64
	}{
		{"deterministic", RunDeterministic, detPhaseBlocks(g.MaxID())},
		{"logstar", RunLogStar, logStarBlocks(g.MaxID())},
	} {
		rec := trace.NewRecorder(1 << 21)
		if _, err := tc.run(g, Options{Seed: 1, Trace: rec}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.Dropped() > 0 {
			t.Fatalf("%s: recorder dropped %d events", tc.name, rec.Dropped())
		}
		phaseLen := tc.phaseBlocks * blk
		type at struct {
			round int64
			node  int32
		}
		talked := map[at]bool{}
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindSend || ev.Kind == trace.KindDeliver {
				talked[at{ev.Round, ev.Node}] = true
			}
		}
		woke := 0
		for _, ev := range rec.Events() {
			if ev.Kind != trace.KindAwake || (ev.Round-1)%phaseLen != side {
				continue
			}
			woke++
			if !talked[at{ev.Round, ev.Node}] {
				t.Errorf("%s: node %d woke for the validate block in round %d but neither sent nor received",
					tc.name, ev.Node, ev.Round)
			}
		}
		if woke == 0 {
			t.Errorf("%s: no node woke in a validate block; the check saw nothing", tc.name)
		}
	}
}
