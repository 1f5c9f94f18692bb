package sleepmst

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sleepmst/internal/sweep"
	"sleepmst/internal/trace"
)

// traceJSONL runs algorithm a on g with a fresh recorder and returns
// the serialized JSONL trace.
func traceJSONL(t *testing.T, a Algorithm, g *Graph, seed int64) []byte {
	t.Helper()
	rec := NewTraceRecorder(0)
	rep, err := Run(a, g, Options{Seed: seed, Trace: rec})
	if err != nil {
		t.Fatalf("%s: %v", a, err)
	}
	if !rep.Verified() {
		t.Fatalf("%s: MST not verified", a)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("%s: write: %v", a, err)
	}
	return buf.Bytes()
}

// TestTraceJSONLGolden pins the JSONL schema byte for byte: a
// fixed-seed run must reproduce testdata/trace_golden.jsonl exactly.
// Any field rename, reorder, or formatting change trips this test —
// the schema is a published contract (DESIGN.md §8), so regenerate
// deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TraceJSONLGolden .
func TestTraceJSONLGolden(t *testing.T) {
	g := RandomConnected(8, 12, 5)
	got := traceJSONL(t, Randomized, g, 1)
	golden := filepath.Join("testdata", "trace_golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from golden (%d vs %d bytes); run with UPDATE_GOLDEN=1 if the schema change is intended", len(got), len(want))
	}
	// The golden trace must also round-trip through the reader.
	meta, events, err := trace.ReadJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if meta.N != g.N() || int64(len(events)) != meta.Events {
		t.Fatalf("round-trip meta mismatch: n=%d events=%d/%d", meta.N, len(events), meta.Events)
	}
}

// TestTraceJSONLGoldenMIS pins the problem suite's MIS trace the same
// way: the fixed-seed golden run must reproduce
// testdata/trace_golden_mis.jsonl byte for byte, covering the MIS
// step markers (mis-sample, mis-cleanup) the MST goldens never emit.
// Regenerate together with the other fixtures:
//
//	UPDATE_GOLDEN=1 go test -run 'Golden' .
func TestTraceJSONLGoldenMIS(t *testing.T) {
	g := RandomConnected(8, 12, 5)
	rec := NewTraceRecorder(0)
	r, err := RunMIS(g, Options{Seed: 1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if ni, nm := MISViolations(g, r.InMIS); ni != 0 || nm != 0 {
		t.Fatalf("golden run produced an invalid MIS: %d in-set edges, %d uncovered", ni, nm)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	golden := filepath.Join("testdata", "trace_golden_mis.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MIS trace differs from golden (%d vs %d bytes); run with UPDATE_GOLDEN=1 if the schema change is intended", len(got), len(want))
	}
	meta, events, err := trace.ReadJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if meta.N != g.N() || int64(len(events)) != meta.Events {
		t.Fatalf("round-trip meta mismatch: n=%d events=%d/%d", meta.N, len(events), meta.Events)
	}
}

// TestTraceByteIdenticalAcrossSweepWorkers is the worker-independence
// acceptance gate: recording a fixed-seed run inside a sweep job must
// yield byte-identical JSONL whether the pool has 1 worker or 8, and
// the merged metrics registries — including the awake/node-avg/* pair
// every problem records — must match exactly. The job mix covers the
// three MST algorithms plus the MIS problem resident.
func TestTraceByteIdenticalAcrossSweepWorkers(t *testing.T) {
	algos := []Algorithm{Randomized, Deterministic, LogStar}
	kinds := len(algos) + 1 // the MSTs plus the MIS resident
	job := func(i int, reg *MetricsRegistry) ([]byte, error) {
		g := RandomConnected(24, 48, int64(10+i/kinds))
		rec := NewTraceRecorder(0)
		if i%kinds == len(algos) {
			if _, err := RunMIS(g, Options{Seed: 1, Trace: rec, Metrics: reg}); err != nil {
				return nil, err
			}
		} else if _, err := Run(algos[i%kinds], g, Options{Seed: 1, Trace: rec, Metrics: reg}); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	n := 2 * kinds
	serialTraces, serialReg, err := sweep.RunWithMetrics(sweep.Config{Workers: 1}, n, job)
	if err != nil {
		t.Fatal(err)
	}
	parallelTraces, parallelReg, err := sweep.RunWithMetrics(sweep.Config{Workers: 8}, n, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialTraces {
		if !bytes.Equal(serialTraces[i], parallelTraces[i]) {
			t.Errorf("job %d: trace differs between -workers 1 and -workers 8", i)
		}
	}
	if serialReg.String() != parallelReg.String() {
		t.Errorf("merged metrics differ between worker counts:\n%s\nvs\n%s", serialReg, parallelReg)
	}
	if serialReg.Get("merge/waves") == 0 || serialReg.Get("moe/probes") == 0 {
		t.Errorf("expected nonzero merge/moe counters, got:\n%s", serialReg)
	}
	// The node-averaged awake pair must be recorded for every job (each
	// run adds its node count) and merge to the same exact average on
	// both worker counts.
	if got, want := serialReg.Get("awake/node-avg/nodes"), int64(n*24); got != want {
		t.Errorf("awake/node-avg/nodes = %d, want %d (24 nodes x %d jobs)", got, want, n)
	}
	if avg := NodeAvgAwake(serialReg); avg <= 0 || avg != NodeAvgAwake(parallelReg) {
		t.Errorf("node-avg awake %v (workers 1) vs %v (workers 8); want equal and positive",
			avg, NodeAvgAwake(parallelReg))
	}
}

// TestTraceByteIdenticalAcrossRuns re-runs the same configuration in
// the same process and demands identical bytes — the in-process half
// of the determinism contract (the golden test covers cross-process).
func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	g := RandomConnected(16, 30, 9)
	for _, a := range []Algorithm{Randomized, Deterministic} {
		first := traceJSONL(t, a, g, 2)
		second := traceJSONL(t, a, g, 2)
		if !bytes.Equal(first, second) {
			t.Errorf("%s: trace not reproducible across runs", a)
		}
	}
}
