package sleepmst

import (
	"math"
	"testing"

	"sleepmst/internal/graph"
)

func TestRunAllAlgorithmsAgree(t *testing.T) {
	g := RandomConnected(48, 120, 7)
	want := graph.Kruskal(g)
	for _, a := range []Algorithm{Randomized, Deterministic, LogStar, Baseline, ClassicGHS} {
		t.Run(a.String(), func(t *testing.T) {
			rep, err := Run(a, g, Options{Seed: 3})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Verified() {
				t.Error("MST does not match reference")
			}
			if rep.MSTWeight() != graph.TotalWeight(want) {
				t.Errorf("weight %d, want %d", rep.MSTWeight(), graph.TotalWeight(want))
			}
			if len(rep.MSTEdges) != g.N()-1 {
				t.Errorf("edges = %d, want %d", len(rep.MSTEdges), g.N()-1)
			}
		})
	}
}

func TestAlgorithmParseRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{Randomized, Deterministic, LogStar, Baseline, ClassicGHS} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: got %v err %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestMSTPortsCoverTree(t *testing.T) {
	g := Grid(4, 4, 9)
	rep, err := Run(Randomized, g, Options{Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ports := MSTPorts(rep)
	// Sum of per-node MST ports counts every tree edge twice.
	total := 0
	for _, ps := range ports {
		total += len(ps)
	}
	if total != 2*(g.N()-1) {
		t.Errorf("port endpoints = %d, want %d", total, 2*(g.N()-1))
	}
}

func TestSleepingBeatsBaseline(t *testing.T) {
	// The headline claim, end to end through the public API: on the
	// same instance the sleeping algorithm's awake complexity is
	// O(log n) while the baseline's equals its Θ(n log n) runtime.
	g := SensorNetwork(128, 0.18, 11)
	sleeping, err := Run(Randomized, g, Options{Seed: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	base, err := Run(Baseline, g, Options{Seed: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sleeping.Verified() || !base.Verified() {
		t.Fatal("unverified MSTs")
	}
	logN := math.Log2(float64(g.N()))
	if float64(sleeping.AwakeComplexity()) > 40*logN {
		t.Errorf("sleeping awake = %d, want O(log n)", sleeping.AwakeComplexity())
	}
	if base.AwakeComplexity() < 50*sleeping.AwakeComplexity() {
		t.Errorf("baseline awake %d vs sleeping %d: want a large gap on n=128",
			base.AwakeComplexity(), sleeping.AwakeComplexity())
	}
}

func TestSolveSDViaMSTFacade(t *testing.T) {
	grc, err := NewGRC(4, 16, 5)
	if err != nil {
		t.Fatalf("grc: %v", err)
	}
	x := []bool{true, false, true}
	y := []bool{false, true, false}
	ins, err := NewDSDInstance(grc, x, y)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	disjoint, metrics, err := SolveSDViaMST(ins, Randomized, Options{Seed: 1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !disjoint {
		t.Error("x and y are disjoint; decoder said otherwise")
	}
	if metrics.MaxAwake() <= 0 {
		t.Error("no metrics recorded")
	}
}

func TestWithRandomIDs(t *testing.T) {
	g := WithRandomIDs(graph.Path(10, graph.GenConfig{Seed: 1}), 1000, 2)
	rep, err := Run(Deterministic, g, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Verified() {
		t.Error("MST wrong with random IDs")
	}
}

func TestRunInvalidAlgorithm(t *testing.T) {
	if _, err := Run(Algorithm(99), graph.Path(4, graph.GenConfig{Seed: 1}), Options{}); err == nil {
		t.Fatal("want error for invalid algorithm")
	}
	if Algorithm(99).String() == "" {
		t.Error("empty string for invalid algorithm")
	}
	if Algorithm(99).Runner() != nil {
		t.Error("runner for invalid algorithm")
	}
}

func TestClassicGHSThroughFacade(t *testing.T) {
	g := Ring(24, 5)
	rep, err := Run(ClassicGHS, g, Options{Seed: 5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Verified() {
		t.Error("classic GHS wrong MST")
	}
	if rep.AwakeComplexity() != rep.Result.MaxHaltRound() {
		t.Error("classic GHS must be awake every round")
	}
}
