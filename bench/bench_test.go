package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs all four workloads at toy sizes, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted
// and finite, that the outputs pass their checks, that the output
// digest repeats, and that the spans file parses.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Traced runs write their CPU profiles to the working directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	spansPath := filepath.Join(dir, "spans.jsonl")

	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			var digest string
			for _, traced := range []bool{false, true} {
				r, err := runWorkload(w, 7, 0, traced, spansPath)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d of %d", traced, r.Correct, r.Failed, r.Attempted)
				}
				if digest != "" && r.Digest != digest {
					t.Errorf("output digest changed between runs of one seed: %s vs %s", digest, r.Digest)
				}
				digest = r.Digest
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				var out bytes.Buffer
				line, err := report(spec, r, &out)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Metrics   map[string]struct {
						Value float64
						Unit  string
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if len(parsed.Metrics) != len(want) || parsed.Attempted < 1 || !parsed.Correct {
					t.Errorf("result line has %d metrics (want %d), attempted %d: %s", len(parsed.Metrics), len(want), parsed.Attempted, line)
				}
				for _, m := range want {
					v, ok := parsed.Metrics[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", m.Name, v, ok, m.Unit)
					}
				}
				if !traced {
					for _, m := range spec.EndToEnd {
						if parsed.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, parsed.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}

	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.EndNS < s.StartNS || s.Name == "" || s.Workload == "" {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 4 {
		t.Errorf("spans file has %d root spans, want one per workload", roots)
	}
}

// TestAttribute checks the pprof -traces parser on a fixed sample.
func TestAttribute(t *testing.T) {
	traces := `File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mapassign_fast64
             sleepmst/internal/ldt.Up
             sleepmst/internal/core.RunRandomized.func1
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      60ms   sleepmst/internal/sim.(*runtime).deliver
             sleepmst/internal/sim.(*Node).Exchange
             sleepmst/internal/core.(*nodeCtx).randPhase
-----------+-------------------------------------------------------
`
	got, err := attribute([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ldt.cpu_share": 0.3, "sim.cpu_share": 0.6, "core.cpu_share": 0,
		"runtime.map_cpu_share": 0.3, "runtime.gc_cpu_share": 0.1, "runtime.coro_cpu_share": 0}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// TestSelfTime checks self time when child spans overlap.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, StartNS: 40, EndNS: 80},
		{ID: 4, Parent: 2, StartNS: 20, EndNS: 30},
	}
	got := selfTimes(spans)
	want := []int64{30, 30, 40, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i+1, got[i], want[i])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
