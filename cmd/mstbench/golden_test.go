package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBenchJSONGolden pins the BENCH_<label>.json schema. The
// simulation metrics (awake_max_mean, rounds_mean) are deterministic
// and compared exactly; the resource metrics and the Go version vary
// per machine, so they are normalized to fixed placeholders before the
// byte comparison. Regenerate with
// `go test ./cmd/mstbench -run Golden -update`.
func TestBenchJSONGolden(t *testing.T) {
	h := &harness{ns: []int{24}, seeds: 2, deg: 3, workers: 1}
	res, err := h.runBench("golden")
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	res.Go = "goX.Y"
	for i := range res.Cells {
		res.Cells[i].WallNsPerRun = 0
		res.Cells[i].AllocsPerRun = 0
		res.Cells[i].BytesPerRun = 0
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	golden := filepath.Join("testdata", "bench_golden.json")
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
		t.Errorf("bench JSON schema drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCompareBenchDetectsRegression injects regressions into a copy of
// a fresh result and checks CompareBench flags exactly the injected
// ones: a wall-clock increase beyond tolerance, any awake increase,
// and a missing cell.
func TestCompareBenchDetectsRegression(t *testing.T) {
	old := &BenchResult{Cells: []BenchCell{
		{Algorithm: "randomized", N: 64, AwakeMaxMean: 10, RoundsMean: 100, WallNsPerRun: 1e6, AllocsPerRun: 500, BytesPerRun: 1e5},
		{Algorithm: "baseline", N: 64, AwakeMaxMean: 20, RoundsMean: 50, WallNsPerRun: 2e6, AllocsPerRun: 700, BytesPerRun: 2e5},
	}}

	same := &BenchResult{Cells: append([]BenchCell(nil), old.Cells...)}
	if regs := CompareBench(old, same); len(regs) != 0 {
		t.Fatalf("identical results flagged: %v", regs)
	}

	// Within tolerance: +9% wall is noise, not a regression.
	noisy := &BenchResult{Cells: append([]BenchCell(nil), old.Cells...)}
	noisy.Cells[0].WallNsPerRun *= 1.09
	if regs := CompareBench(old, noisy); len(regs) != 0 {
		t.Fatalf("+9%% wall flagged despite 10%% tolerance: %v", regs)
	}

	bad := &BenchResult{Cells: append([]BenchCell(nil), old.Cells...)}
	bad.Cells[0].WallNsPerRun *= 1.5 // beyond 10% tolerance
	bad.Cells[1].AwakeMaxMean = 20.5 // deterministic metric: any increase
	bad.Cells = bad.Cells[:2]
	regs := CompareBench(old, bad)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want wall + awake", regs)
	}
	joined := strings.Join(regs, "\n")
	for _, want := range []string{"wall_ns_per_run", "awake_max_mean"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %v", want, regs)
		}
	}

	missing := &BenchResult{Cells: old.Cells[:1]}
	regs = CompareBench(old, missing)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Errorf("missing cell not flagged: %v", regs)
	}
}

// TestBenchCommandExitCodes is the end-to-end guard for the CI gate:
// `-compare old -with new` must exit non-zero exactly when new
// regresses old.
func TestBenchCommandExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, res *BenchResult) string {
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := &BenchResult{Label: "old", Cells: []BenchCell{
		{Algorithm: "randomized", N: 64, AwakeMaxMean: 10, RoundsMean: 100, WallNsPerRun: 1e6},
	}}
	good := &BenchResult{Label: "new", Cells: old.Cells}
	regressed := &BenchResult{Label: "new", Cells: []BenchCell{
		{Algorithm: "randomized", N: 64, AwakeMaxMean: 10, RoundsMean: 100, WallNsPerRun: 2e6},
	}}
	oldPath := write("old.json", old)
	h := &harness{workers: 1}
	if code := h.benchCommand("x", "", oldPath, write("good.json", good)); code != 0 {
		t.Errorf("clean compare exited %d, want 0", code)
	}
	if code := h.benchCommand("x", "", oldPath, write("bad.json", regressed)); code == 0 {
		t.Error("regressed compare exited 0, want non-zero")
	}
}
