// Conformance matrix: every sleeping-model algorithm, at n ∈ {16, 64,
// 256}, must satisfy the full internal/conform invariant catalog on a
// clean run, and the relaxed catalog (plus the chaos oracle's
// correct-mst verdict) under calibrated drop and delay injection. An
// external test package so it can exercise the facade the way
// mstbench does.
package core_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"sleepmst"
	"sleepmst/internal/chaos"
	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
)

// conformCap is the recorder capacity used by the matrix: big enough
// that no n=256 cell drops events (drops would skip most checks).
const conformCap = 1 << 21

// conformSizes is the node-count axis of the matrix. n=256 cells are
// skipped in -short mode.
var conformSizes = []int{16, 64, 256}

// sleepingAlgos are the algorithms with paper awake-budget claims.
var sleepingAlgos = []sleepmst.Algorithm{sleepmst.Randomized, sleepmst.Deterministic, sleepmst.LogStar}

// conformGraph is the matrix topology: random connected, average
// degree 6, one deterministic instance per size.
func conformGraph(n int) *sleepmst.Graph {
	return sleepmst.RandomConnected(n, 3*n, int64(n*1000))
}

// TestSupergraphBoundMatchesCore pins the checker's degree bound to
// the algorithm's actual sparsification constant: 3 accepted incoming
// MOEs plus the fragment's own outgoing MOE.
func TestSupergraphBoundMatchesCore(t *testing.T) {
	if conform.SupergraphDegreeBound != core.MaxValidIncomingMOEs+1 {
		t.Fatalf("conform.SupergraphDegreeBound = %d, core allows %d incoming MOEs + 1 outgoing",
			conform.SupergraphDegreeBound, core.MaxValidIncomingMOEs)
	}
}

// TestConformanceCleanMatrix runs the strict catalog — no slack, no
// relaxations — on drop-free traces of all three algorithms.
func TestConformanceCleanMatrix(t *testing.T) {
	for _, a := range sleepingAlgos {
		for _, n := range conformSizes {
			a, n := a, n
			t.Run(fmt.Sprintf("%s/n=%d", a, n), func(t *testing.T) {
				if testing.Short() && n > 64 {
					t.Skip("n=256 cell skipped in short mode")
				}
				p, err := problem.Lookup(a.String())
				if err != nil {
					t.Fatal(err)
				}
				c, err := problem.Certify(p, conformGraph(n), sleepmst.Options{Seed: 1}, nil)
				if err != nil {
					t.Fatalf("%s n=%d: %v", a, n, err)
				}
				if !c.Verdict.Pass {
					t.Errorf("strict conformance failed:\n%s", c.Verdict)
				}
				// The deterministic variants must actually exercise the
				// sparsification check, not skip it.
				if a != sleepmst.Randomized {
					if ch := c.Verdict.Lookup(conform.CheckSparsifyDegree); ch == nil || ch.Status != conform.StatusPass {
						t.Errorf("sparsify-degree not exercised: %+v", ch)
					}
				}
			})
		}
	}
}

// BenchmarkCheckTrace measures the checker's replay cost on a
// deterministic n=256 trace (~260k events) — the overhead `mstbench
// -exp conform` adds on top of the traced run itself (EXPERIMENTS.md
// E19).
func BenchmarkCheckTrace(b *testing.B) {
	g := conformGraph(256)
	rec := trace.NewRecorder(conformCap)
	if _, err := sleepmst.Deterministic.Runner()(g, sleepmst.Options{Seed: 1, Trace: rec}); err != nil {
		b.Fatal(err)
	}
	meta, events := rec.Meta(), rec.Events()
	info := conform.RunInfo{Algorithm: "deterministic", N: 256, Seed: 1}
	b.ReportMetric(float64(len(events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := conform.CheckTrace(meta, events, info); !v.Pass {
			b.Fatalf("unexpected failure:\n%s", v)
		}
	}
}

// BenchmarkTraceStages times the stages of one traced service-sized
// request — Deterministic-MST on a random graph with n=48 and m=2n,
// the largest cell of the service benchmark's mix: the run with a
// recorder, which orders the events as the run goes, the verdict over
// them, the JSONL render of them, and writing the response frame with
// the render's chunks, as the Server does, and reading it back; and
// certify, the run certified as it goes the way the service does it —
// streamed order, fold and capped render in one pass — which replaces
// record, verdict and jsonl (DESIGN §14.5).
func BenchmarkTraceStages(b *testing.B) {
	g := sleepmst.RandomConnected(48, 96, 48000)
	run := func(b *testing.B) *trace.Recorder {
		rec := trace.NewRecorder(1 << 18)
		if _, err := sleepmst.Deterministic.Runner()(g, sleepmst.Options{Seed: 1, Trace: rec}); err != nil {
			b.Fatal(err)
		}
		return rec
	}
	rec := run(b)
	meta, events := rec.Meta(), rec.Events()
	info := conform.RunInfo{Algorithm: "deterministic", N: 48, Seed: 1}
	// render draws the ordered events as the service's render does,
	// into chunks the Server writes as they are.
	render := func() *trace.JSONL {
		j := trace.NewJSONL(math.MaxInt64, math.MaxInt)
		j.Begin(meta.N)
		j.Round(events)
		j.End(meta)
		return j
	}
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
	b.Run("verdict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := conform.CheckTrace(meta, events, info); !v.Pass {
				b.Fatalf("unexpected failure:\n%s", v)
			}
		}
	})
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			render()
		}
	})
	b.Run("certify", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(events)), "events")
		p, err := problem.Lookup("mst/deterministic")
		if err != nil {
			b.Fatal(err)
		}
		want := render().Len()
		for i := 0; i < b.N; i++ {
			jsonl := trace.NewJSONL(service.DefaultTraceCap, service.MaxFrameBytes)
			c, err := problem.Certify(p, g, sleepmst.Options{Seed: 1}, jsonl)
			if err != nil || !c.Verdict.Pass || jsonl.Chunks() == nil || jsonl.Len() != want {
				b.Fatalf("err %v, pass %v, %d JSONL bytes, want %d", err, c.Verdict.Pass, jsonl.Len(), want)
			}
		}
	})
	b.Run("respond", func(b *testing.B) {
		b.ReportAllocs()
		resp := service.Response{ID: 1, Status: service.StatusOK}
		chunks := render().Chunks()
		frame, err := service.AppendResponse(nil, service.Response{ID: 1, Status: service.StatusOK, Trace: bytes.Join(chunks, nil)})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := service.WriteResponseParts(io.Discard, resp, chunks); err != nil {
				b.Fatal(err)
			}
			if _, err := service.ReadResponse(bufio.NewReader(bytes.NewReader(frame))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// conformFaults is the fault axis: message drops and message delays,
// both at a per-cell calibrated rate. The rate targets ~0.5 injected
// faults per run (0.5 / clean-run messages): enough to exercise the
// recovery paths without disconnecting fragments — E16 showed fixed
// i.i.d. rates are lethal at these sizes.
var conformFaults = []struct {
	name string
	opts func(rate float64, seed int64) chaos.Options
}{
	{"drop", func(rate float64, seed int64) chaos.Options {
		return chaos.Options{Seed: seed, DropRate: rate}
	}},
	{"delay", func(rate float64, seed int64) chaos.Options {
		return chaos.Options{Seed: seed, DelayRate: rate, MaxDelay: 2}
	}},
}

// TestConformanceChaosMatrix injects calibrated drops/delays into
// every cell and asserts the oracle still reports correct-mst and the
// relaxed catalog passes. Chaos seeds are searched (calibration found
// a surviving seed ≤ 2 for every cell; the search absorbs drift in
// message counts without flaking).
func TestConformanceChaosMatrix(t *testing.T) {
	for _, a := range sleepingAlgos {
		for _, n := range conformSizes {
			for _, fault := range conformFaults {
				a, n, fault := a, n, fault
				t.Run(fmt.Sprintf("%s/n=%d/%s", a, n, fault.name), func(t *testing.T) {
					if testing.Short() && n > 64 {
						t.Skip("n=256 cell skipped in short mode")
					}
					g := conformGraph(n)
					clean, err := a.Runner()(g, sleepmst.Options{Seed: 1})
					if err != nil {
						t.Fatalf("clean run: %v", err)
					}
					rate := 0.5 / float64(clean.Result.MessagesSent)
					wantWeight := graph.TotalWeight(graph.Kruskal(g))
					for seed := int64(1); seed <= 12; seed++ {
						pol := chaos.New(fault.opts(rate, seed))
						rec := trace.NewRecorder(conformCap)
						out, err := a.Runner()(g, sleepmst.Options{Seed: 1, Trace: rec, Interceptor: pol})
						if chaos.Classify(g, out, err) != chaos.CorrectMST {
							continue
						}
						if seed > 2 {
							t.Logf("surviving chaos seed drifted to %d (calibrated ≤ 2)", seed)
						}
						conform.Suite{
							Info: conform.RunInfo{Algorithm: a.String(), N: n, Seed: 1,
								Relaxed: true, BudgetSlack: 2},
							Meta:   rec.Meta(),
							Events: rec.Events(),
							Extra:  []conform.Check{conform.WeightCheck(graph.TotalWeight(out.MSTEdges), wantWeight)},
						}.Assert(t)
						return
					}
					t.Fatalf("no chaos seed in 1..12 yields correct-mst at rate %.3g", rate)
				})
			}
		}
	}
}
