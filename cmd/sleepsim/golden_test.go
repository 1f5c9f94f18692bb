package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestChaosJSONGolden pins the `sleepsim -chaos ... -json` artifact
// byte-for-byte: the sweep is deterministic, so any schema or
// aggregation change shows up as a golden diff. Regenerate with
// `go test ./cmd/sleepsim -run Golden -update`.
func TestChaosJSONGolden(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "sweep.json")
	if err := runChaos("random", 24, 0, 0, 0, 3, false,
		"drop", "0,0.05", 2, "randomized,baseline", 0, jsonPath, 1); err != nil {
		t.Fatalf("runChaos: %v", err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	golden := filepath.Join("testdata", "chaos_sweep_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("chaos JSON schema drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
