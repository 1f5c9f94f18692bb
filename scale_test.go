// Large-n smoke tests. Each test runs a full algorithm at a size
// configurable via SLEEPMST_SCALE_N (the CI scale-smoke job sets
// 100000; the default keeps an unconfigured `go test ./...` in
// seconds) and asserts the run completes, verifies, and stays inside
// its calibrated awake envelope — the paper's bounds do not loosen
// with n, so these are real assertions, not just liveness probes.
//
// All scale tests skip under -short: they are the slow tier by
// definition.
package sleepmst

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// scaleN yields the smoke-test size: SLEEPMST_SCALE_N when set (the
// scale-smoke CI job runs 100000), otherwise def. Skips under -short.
func scaleN(t *testing.T, def int) int {
	t.Helper()
	if testing.Short() {
		t.Skip("scale smoke test skipped in -short")
	}
	raw := os.Getenv("SLEEPMST_SCALE_N")
	if raw == "" {
		return def
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 4 {
		t.Fatalf("SLEEPMST_SCALE_N: bad size %q", raw)
	}
	return n
}

// TestScaleRandomizedMST runs the paper's randomized O(log n)-awake
// MST at scale: the tree must verify against
// Kruskal and the worst-case awake complexity must stay inside the
// calibrated budget — at n = 10^5 the envelope is ~600 awake rounds
// against ~70M virtual rounds, the sleeping-model gap the engine
// exists to make observable.
func TestScaleRandomizedMST(t *testing.T) {
	n := scaleN(t, 4096)
	g := RandomConnected(n, 3*n, int64(n))
	rep, err := Run(Randomized, g, Options{Seed: 1})
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if !rep.Verified() {
		t.Fatalf("n=%d: MST failed verification against Kruskal", n)
	}
	budget, ok := conform.AwakeBudget(conform.AlgoRandomized, n)
	if !ok {
		t.Fatalf("no calibrated budget for %s", conform.AlgoRandomized)
	}
	if got := rep.AwakeComplexity(); got > budget {
		t.Errorf("n=%d: awake complexity %d exceeds budget %d", n, got, budget)
	}
	t.Logf("n=%d: awake=%d budget=%d rounds=%d busy=%d",
		n, rep.AwakeComplexity(), budget, rep.RoundComplexity(), rep.Result.BusyRounds)
}

// TestScaleMIS runs the O(log log n)-awake MIS at scale: the output
// must be a maximal independent set and worst-case awake must stay
// inside the doubly-logarithmic envelope (19 awake rounds at
// n = 10^5).
func TestScaleMIS(t *testing.T) {
	n := scaleN(t, 8192)
	g := RandomConnected(n, 3*n, int64(n))
	p, err := problem.Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if verr := p.Verify(g, r); verr != nil {
		t.Fatalf("n=%d: %v", n, verr)
	}
	budget, ok := p.Budget(n)
	if !ok {
		t.Fatal("no calibrated budget for mis")
	}
	if got := r.Sim.MaxAwake(); got > budget {
		t.Errorf("n=%d: awake complexity %d exceeds budget %d", n, got, budget)
	}
	t.Logf("n=%d: awake=%d budget=%d busy=%d", n, r.Sim.MaxAwake(), budget, r.Sim.BusyRounds)
}

// TestScaleConformStrict replays the scalable problems with full
// trace recording at the largest traceable size and demands a strict
// (non-relaxed) conformance pass over the whole check catalog — the
// structural invariants (sleeping-delivery, causality, budget,
// problem oracle) hold at scale, not just at the unit sizes the
// conformance suite sweeps.
func TestScaleConformStrict(t *testing.T) {
	n := scaleN(t, 4096)
	// Trace volume grows with awake node-rounds; cap the traced size
	// so the recorder stays in memory even when SLEEPMST_SCALE_N asks
	// for 10^5 nodes in the untraced tests above.
	const maxTraced = 16384
	if n > maxTraced {
		n = maxTraced
	}
	g := RandomConnected(n, 3*n, int64(n))
	for _, name := range []string{"mst/randomized", "mis"} {
		t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
			p, err := problem.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(0)
			r, err := p.Run(g, core.Options{Seed: 1, Trace: rec})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			suite := conform.Suite{
				Info:   conform.RunInfo{Algorithm: p.Name(), N: n, Seed: 1, Budget: p.Budget},
				Meta:   rec.Meta(),
				Events: rec.Events(),
				Extra:  []conform.Check{p.ConformCheck(g, r)},
			}
			v := suite.Verdict()
			if !v.Pass {
				var buf bytes.Buffer
				if werr := v.WriteJSON(&buf); werr == nil {
					t.Logf("verdict:\n%s", buf.String())
				}
				t.Fatalf("strict conformance failed at n=%d", n)
			}
		})
	}
}
