// The benchmark-regression harness: `mstbench -exp bench` runs a
// wall-clock/allocation benchmark suite over the (algorithm × size ×
// seed) grid through the parallel sweep engine, emits the result as a
// BENCH_<label>.json artifact, and `-compare old.json` fails the
// process when the fresh run (or a `-with new.json` file) regresses:
// any increase in the simulation metrics (awake, rounds — they are
// deterministic, so any change is real) or a >10% increase in the
// resource metrics (wall-clock, allocs, bytes).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sleepmst"
	"sleepmst/internal/sweep"
)

// benchAlgos is the suite under measurement: the paper's randomized
// algorithm plus the two traditional-model comparators. (The
// deterministic variants are excluded: their O(nN log n) simulated
// rounds would dominate the suite's wall-clock without exercising any
// different hot path.)
var benchAlgos = []sleepmst.Algorithm{sleepmst.Randomized, sleepmst.Baseline, sleepmst.ClassicGHS}

// BenchCell is one (algorithm, n) cell of the benchmark suite.
type BenchCell struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	Seeds     int    `json:"seeds"`
	// AwakeMaxMean / RoundsMean are simulation metrics: deterministic
	// for fixed seeds, so compare demands exact non-regression.
	AwakeMaxMean float64 `json:"awake_max_mean"`
	RoundsMean   float64 `json:"rounds_mean"`
	// WallNsPerRun is the mean wall-clock per run; AllocsPerRun and
	// BytesPerRun come from a dedicated serial calibration run.
	WallNsPerRun float64 `json:"wall_ns_per_run"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
}

// BenchResult is the BENCH_<label>.json schema.
type BenchResult struct {
	Label   string      `json:"label"`
	Go      string      `json:"go"`
	Workers int         `json:"workers"`
	Seeds   int         `json:"seeds"`
	Cells   []BenchCell `json:"cells"`
}

// JSON renders the artifact deterministically (cells in grid order).
func (r *BenchResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// benchGraph builds the canonical benchmark instance for one cell;
// every run of the cell shares the topology and varies only the
// algorithm seed, mirroring bench_test.go.
func benchGraph(n int) *sleepmst.Graph {
	return sleepmst.RandomConnected(n, 3*n, int64(n))
}

// runBench executes the benchmark suite. Timing runs go through the
// parallel engine (each job times itself); the allocation calibration
// is one extra serial run per cell, because allocation counters are
// process-global.
func (h *harness) runBench(label string) (*BenchResult, error) {
	type timing struct {
		awake  float64
		rounds float64
		wallNs float64
	}
	algos := h.benchSuite()
	grid := sweep.NewGrid(len(algos), len(h.ns), h.seeds)
	timings, err := sweep.Run(sweep.Config{Workers: h.workers}, grid.Size(), func(idx int) (timing, error) {
		c := grid.Coords(idx)
		a, n, seed := algos[c[0]], h.ns[c[1]], int64(c[2])
		g := benchGraph(n)
		start := time.Now()
		rep, err := sleepmst.Run(a, g, sleepmst.Options{Seed: seed})
		if err != nil {
			return timing{}, fmt.Errorf("%s n=%d seed=%d: %w", a, n, seed, err)
		}
		wall := time.Since(start)
		if !rep.Verified() {
			return timing{}, fmt.Errorf("%s n=%d seed=%d: MST mismatch", a, n, seed)
		}
		return timing{
			awake:  float64(rep.AwakeComplexity()),
			rounds: float64(rep.RoundComplexity()),
			wallNs: float64(wall.Nanoseconds()),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &BenchResult{
		Label:   label,
		Go:      runtime.Version(),
		Workers: h.workers,
		Seeds:   h.seeds,
	}
	for ai, a := range algos {
		for ni, n := range h.ns {
			cell := BenchCell{Algorithm: a.String(), N: n, Seeds: h.seeds}
			for s := 0; s < h.seeds; s++ {
				t := timings[(ai*len(h.ns)+ni)*h.seeds+s]
				cell.AwakeMaxMean += t.awake
				cell.RoundsMean += t.rounds
				cell.WallNsPerRun += t.wallNs
			}
			cell.AwakeMaxMean /= float64(h.seeds)
			cell.RoundsMean /= float64(h.seeds)
			cell.WallNsPerRun /= float64(h.seeds)
			cell.AllocsPerRun, cell.BytesPerRun = allocsPerRun(a, n)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// allocsPerRun measures heap allocations of one run with the global
// allocation counters; it must run with no concurrent jobs.
func allocsPerRun(a sleepmst.Algorithm, n int) (allocs, bytes float64) {
	g := benchGraph(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := sleepmst.Run(a, g, sleepmst.Options{Seed: 0}); err != nil {
		return 0, 0
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// wallTolerance is the accepted growth factor for the noisy resource
// metrics (wall-clock, allocations); simulation metrics get none.
const wallTolerance = 1.10

// CompareBench returns one message per regression of new against old;
// an empty slice means no regression.
func CompareBench(old, new *BenchResult) []string {
	var regressions []string
	index := make(map[[2]string]BenchCell, len(new.Cells))
	for _, c := range new.Cells {
		index[[2]string{c.Algorithm, fmt.Sprint(c.N)}] = c
	}
	for _, oc := range old.Cells {
		nc, ok := index[[2]string{oc.Algorithm, fmt.Sprint(oc.N)}]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s n=%d: cell missing from new result", oc.Algorithm, oc.N))
			continue
		}
		check := func(metric string, oldV, newV, tolerance float64) {
			if oldV > 0 && newV > oldV*tolerance {
				regressions = append(regressions, fmt.Sprintf("%s n=%d: %s regressed %.4g -> %.4g (tolerance %.0f%%)",
					oc.Algorithm, oc.N, metric, oldV, newV, (tolerance-1)*100))
			}
		}
		check("awake_max_mean", oc.AwakeMaxMean, nc.AwakeMaxMean, 1.0)
		check("rounds_mean", oc.RoundsMean, nc.RoundsMean, 1.0)
		check("wall_ns_per_run", oc.WallNsPerRun, nc.WallNsPerRun, wallTolerance)
		check("allocs_per_run", oc.AllocsPerRun, nc.AllocsPerRun, wallTolerance)
		check("bytes_per_run", oc.BytesPerRun, nc.BytesPerRun, wallTolerance)
	}
	return regressions
}

// loadBench reads a BENCH_*.json artifact.
func loadBench(path string) (*BenchResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res BenchResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// benchCommand drives the -exp bench / -json / -compare surface.
// Returns the process exit code.
func (h *harness) benchCommand(label, jsonOut, compareOld, compareWith string) int {
	var fresh *BenchResult
	var err error
	if compareWith == "" {
		fresh, err = h.runBench(label)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		if jsonOut == "" {
			jsonOut = fmt.Sprintf("BENCH_%s.json", label)
		}
		b, err := fresh.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		fmt.Printf("bench: wrote %s (%d cells, %d workers)\n", jsonOut, len(fresh.Cells), h.workers)
	}
	if compareOld == "" {
		return 0
	}
	old, err := loadBench(compareOld)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		return 1
	}
	cur := fresh
	if compareWith != "" {
		if cur, err = loadBench(compareWith); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
	}
	regressions := CompareBench(old, cur)
	if len(regressions) == 0 {
		fmt.Printf("bench: no regression against %s\n", compareOld)
		return 0
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "mstbench: REGRESSION:", r)
	}
	return 1
}
