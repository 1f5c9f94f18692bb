package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseRates(t *testing.T) {
	got, err := parseRates("0, 0.01,0.5")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 0.01 || got[2] != 0.5 {
		t.Errorf("rates = %v", got)
	}
	for _, bad := range []string{"", "x", "-0.1", "1.5"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q): want error", bad)
		}
	}
}

func TestRunChaosEndToEnd(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "sweep.json")
	if err := runChaos("random", 24, 0, 0, 0, 3, false,
		"drop", "0,0.05", 2, "randomized,baseline", 0, jsonPath, 0); err != nil {
		t.Fatalf("runChaos: %v", err)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read json artifact: %v", err)
	}
	var out struct {
		N     int `json:"n"`
		Cells []struct {
			Algorithm string         `json:"algorithm"`
			Rate      float64        `json:"rate"`
			Runs      int            `json:"runs"`
			Counts    map[string]int `json:"counts"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if out.N != 24 || len(out.Cells) != 4 {
		t.Errorf("artifact n=%d cells=%d, want 24/4", out.N, len(out.Cells))
	}
	for _, c := range out.Cells {
		if c.Rate == 0 && c.Counts["correct-mst"] != c.Runs {
			t.Errorf("rate-0 cell for %s not all correct: %v", c.Algorithm, c.Counts)
		}
	}
}

func TestRunChaosBadInputs(t *testing.T) {
	if err := runChaos("random", 16, 0, 0, 0, 1, false, "meteor", "0", 1, "randomized", 0, "", 0); err == nil {
		t.Error("want error for unknown fault")
	}
	if err := runChaos("random", 16, 0, 0, 0, 1, false, "drop", "0", 1, "quantum", 0, "", 0); err == nil {
		t.Error("want error for unknown algorithm")
	}
	if err := runChaos("nope", 16, 0, 0, 0, 1, false, "drop", "0", 1, "randomized", 0, "", 0); err == nil {
		t.Error("want error for unknown graph kind")
	}
}
