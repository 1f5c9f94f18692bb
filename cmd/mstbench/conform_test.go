package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sleepmst/internal/conform"
)

// TestConformCommandFreshRuns drives the -exp conform path end to
// end on a small size: all three sleeping algorithms must pass the
// strict catalog and the JSON artifact must round-trip.
func TestConformCommandFreshRuns(t *testing.T) {
	h := &harness{ns: []int{32}, seeds: 1, deg: 3}
	out := filepath.Join(t.TempDir(), "verdict.json")
	if code := h.conformCommand("randomized,deterministic,logstar", "", "", out); code != 0 {
		t.Fatalf("conformCommand exit %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art verdictArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.Schema != conform.VerdictSchema || len(art.Verdicts) != 3 {
		t.Fatalf("artifact schema %d with %d verdicts", art.Schema, len(art.Verdicts))
	}
	for _, v := range art.Verdicts {
		if !v.Pass || v.N != 32 {
			t.Errorf("%s: pass=%v n=%d", v.Algo, v.Pass, v.N)
		}
	}
}

// TestConformCommandTraceIn checks an existing JSONL stream: the
// -conform-algo hint turns the awake-budget check on.
func TestConformCommandTraceIn(t *testing.T) {
	h := &harness{ns: []int{24}, seeds: 1, deg: 3}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	if code := h.traceCommand("randomized", "", tracePath, 0); code != 0 {
		t.Fatalf("traceCommand exit %d", code)
	}
	out := filepath.Join(dir, "verdict.json")
	if code := h.conformCommand("", tracePath, "randomized", out); code != 0 {
		t.Fatalf("conformCommand -trace-in exit %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art verdictArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Verdicts) != 1 {
		t.Fatalf("want 1 verdict, got %d", len(art.Verdicts))
	}
	v := art.Verdicts[0]
	budget := false
	for _, c := range v.Checks {
		if c.Name == conform.CheckAwakeBudget && c.Status == conform.StatusPass {
			budget = true
		}
	}
	if !v.Pass || !budget {
		t.Fatalf("trace-in verdict: pass=%v budget-ran=%v", v.Pass, budget)
	}
	// Without the hint the budget check is skipped, not failed.
	if code := h.conformCommand("", tracePath, "", ""); code != 0 {
		t.Fatalf("hint-less conformCommand exit %d", code)
	}
}

// TestConformCommandRejectsBadInput covers the error paths: unknown
// algorithm names and unreadable trace files.
func TestConformCommandRejectsBadInput(t *testing.T) {
	h := &harness{ns: []int{16}, seeds: 1, deg: 3}
	if code := h.conformCommand("no-such-algo", "", "", ""); code == 0 {
		t.Error("unknown algorithm accepted")
	}
	if code := h.conformCommand("", filepath.Join(t.TempDir(), "missing.jsonl"), "", ""); code == 0 {
		t.Error("missing trace file accepted")
	}
}
