package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBuildGraphKinds(t *testing.T) {
	cases := []struct {
		kind  string
		n     int
		wantN int
	}{
		{"random", 20, 20},
		{"ring", 12, 12},
		{"path", 9, 9},
		{"grid", 16, 16},
		{"complete", 7, 7},
		{"sensor", 25, 25},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			g, err := buildGraph(tc.kind, tc.n, 0, 0, 0.3, 5)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if g.N() != tc.wantN {
				t.Errorf("n = %d, want %d", g.N(), tc.wantN)
			}
			// sleepsim's random default is denser than the daemon's.
			if tc.kind == "random" && g.M() != 3*tc.n {
				t.Errorf("m = %d, want 3n = %d", g.M(), 3*tc.n)
			}
		})
	}
	if _, err := buildGraph("nope", 10, 0, 0, 0.3, 5); err == nil {
		t.Error("want error for unknown kind")
	}
}

func TestGridDimensions(t *testing.T) {
	// grid with non-square n: rows*cols >= n with default rows.
	g, err := buildGraph("grid", 10, 0, 0, 0, 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.N() < 10 {
		t.Errorf("grid n = %d, want >= 10", g.N())
	}
}

// TestBadTopologyFlags: degenerate topology flags are errors, in the
// MST and the problem-suite paths alike, never a panic.
func TestBadTopologyFlags(t *testing.T) {
	for _, o := range []runOpts{
		{graphKind: "random", n: 0},
		{graphKind: "ring", n: 2},
		{graphKind: "random", n: 10, idSpace: 3},
	} {
		o.seed, o.width = 1, 40
		o.algoName = "randomized"
		if err := run(o); err == nil {
			t.Errorf("run(%s n=%d idspace=%d): want error", o.graphKind, o.n, o.idSpace)
		}
		o.algoName = "mis"
		if err := runProblem(o); err == nil {
			t.Errorf("runProblem(%s n=%d idspace=%d): want error", o.graphKind, o.n, o.idSpace)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	// The whole CLI path minus flag parsing.
	if err := run(runOpts{graphKind: "ring", n: 16, seed: 3, algoName: "randomized", bitCap: true, width: 40}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(runOpts{graphKind: "path", n: 8, seed: 3, algoName: "deterministic", idSpace: 32,
		showTrace: true, showHist: true, width: 40}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(runOpts{graphKind: "ring", n: 8, seed: 3, algoName: "unknown-algo", width: 40}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestRunWithObservability(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run(runOpts{graphKind: "ring", n: 12, seed: 5, algoName: "randomized",
		traceOut: out, showMetrics: true, width: 40}); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if !strings.HasPrefix(string(b), `{"k":"begin"`) {
		t.Errorf("trace does not start with a begin line: %.60s", b)
	}
	if !strings.Contains(string(b), `"k":"end"`) {
		t.Error("trace has no end line")
	}
}
