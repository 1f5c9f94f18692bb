// Registry and adapter tests for the problem suite, from the outside:
// qualified names, bare MST aliases, the listed-choices error, and the
// MST adapter's oracle/budget wiring.
package problem_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"sleepmst"
	"sleepmst/internal/conform"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
)

// TestNamesSortedAndComplete pins the registry surface: the qualified
// spelling of every problem, in sorted order.
func TestNamesSortedAndComplete(t *testing.T) {
	want := []string{"mis", "mst/baseline", "mst/deterministic", "mst/ghs", "mst/logstar", "mst/randomized"}
	got := problem.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLookupAliases: every bare MST spelling must resolve to the same
// problem as its qualified name.
func TestLookupAliases(t *testing.T) {
	for bare, qualified := range map[string]string{
		"randomized":    "mst/randomized",
		"deterministic": "mst/deterministic",
		"logstar":       "mst/logstar",
		"baseline":      "mst/baseline",
		"ghs":           "mst/ghs",
	} {
		p, err := problem.Lookup(bare)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", bare, err)
		}
		if p.Name() != qualified {
			t.Errorf("Lookup(%q).Name() = %q, want %q", bare, p.Name(), qualified)
		}
		q, err := problem.Lookup(qualified)
		if err != nil || q.Name() != p.Name() {
			t.Errorf("Lookup(%q) = %v, %v; want same problem as alias", qualified, q, err)
		}
	}
}

// TestLookupUnknownListsChoices: the rejection error must name every
// valid spelling, qualified and bare — it is what mstbench prints.
func TestLookupUnknownListsChoices(t *testing.T) {
	_, err := problem.Lookup("mst/bogus")
	if err == nil {
		t.Fatal("Lookup(mst/bogus): want error, got nil")
	}
	for _, choice := range append(problem.Names(), "randomized", "ghs") {
		if !strings.Contains(err.Error(), choice) {
			t.Errorf("error %q does not list choice %q", err, choice)
		}
	}
}

// TestMSTAdapter runs an MST problem through the generic interface and
// checks the full contract: a verified spanning tree, a passing weight
// check, and a budget that matches the conform catalog envelope.
func TestMSTAdapter(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	n := 32
	g := sleepmst.RandomConnected(n, 3*n, 7)
	r, err := p.Run(g, sleepmst.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Problem != "mst/randomized" || r.Outcome == nil || r.InMIS != nil {
		t.Fatalf("MST result shape wrong: %+v", r)
	}
	if err := p.Verify(g, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if c := p.ConformCheck(g, r); c.Status != conform.StatusPass {
		t.Errorf("ConformCheck: %+v", c)
	}
	gotBudget, gotOK := p.Budget(n)
	wantBudget, wantOK := conform.AwakeBudget(conform.AlgoRandomized, n)
	if gotBudget != wantBudget || gotOK != wantOK {
		t.Errorf("Budget(%d) = %d,%v; want catalog envelope %d,%v", n, gotBudget, gotOK, wantBudget, wantOK)
	}
}

// TestBaselineBudgetSkipped: the comparators carry no paper envelope,
// so their Budget must report ok=false (the conformance budget check
// then skips rather than inventing a bound).
func TestBaselineBudgetSkipped(t *testing.T) {
	for _, name := range []string{"mst/baseline", "mst/ghs"} {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := p.Budget(64); ok {
			t.Errorf("%s: Budget = %d, ok=true; comparators have no envelope", name, b)
		}
	}
}

// TestNodeAvgRecordedForAllProblems: every registry entry, run with a
// metrics registry, must record the node-averaged awake pair — the
// accounting the problem suite promises uniformly.
func TestNodeAvgRecordedForAllProblems(t *testing.T) {
	n := 24
	g := sleepmst.RandomConnected(n, 3*n, 9)
	for _, name := range problem.Names() {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		r, err := p.Run(g, sleepmst.Options{Seed: 1, Metrics: reg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nodes := reg.Get(metrics.NodeAvgNodes); nodes != int64(n) {
			t.Errorf("%s: %s = %d, want %d", name, metrics.NodeAvgNodes, nodes, n)
		}
		if sum := reg.Get(metrics.NodeAvgSum); sum <= 0 {
			t.Errorf("%s: %s = %d, want positive", name, metrics.NodeAvgSum, sum)
		}
		avg := metrics.NodeAvgAwake(reg)
		if avg <= 0 || avg > float64(r.Sim.MaxAwake()) {
			t.Errorf("%s: node-avg awake %.2f outside (0, max=%d]", name, avg, r.Sim.MaxAwake())
		}
	}
}

// TestCertifyAppendsOracleOnlyOnSuccess pins Certify's three outcomes:
// a completed run ends its verdict with the problem's oracle, a failed
// run is still checked but without it, and a canceled run comes back
// unchecked.
func TestCertifyAppendsOracleOnlyOnSuccess(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	g := sleepmst.RandomConnected(16, 32, 16)
	canceled := make(chan struct{})
	close(canceled)
	for _, c := range []struct {
		name   string
		opts   sleepmst.Options
		wantOK bool
	}{
		{"completed", sleepmst.Options{Seed: 1}, true},
		{"failed", sleepmst.Options{Seed: 1, AwakeBudget: 1}, false},
		{"canceled", sleepmst.Options{Seed: 1, Cancel: canceled}, false},
	} {
		got, err := problem.Certify(p, g, c.opts, nil)
		if (err == nil) != c.wantOK {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		switch {
		case c.name == "canceled":
			if !errors.Is(err, sim.ErrCanceled) || got.Verdict != nil || got.Meta.Events != 0 {
				t.Errorf("canceled: err %v, verdict %v, %d events; want ErrCanceled and nothing checked", err, got.Verdict, got.Meta.Events)
			}
		case got.Verdict == nil || got.Meta.Events == 0:
			t.Errorf("%s: no verdict or no checked events", c.name)
		default:
			last := got.Verdict.Checks[len(got.Verdict.Checks)-1].Name
			if hasOracle := last == conform.CheckMSTWeight; hasOracle != c.wantOK {
				t.Errorf("%s: verdict ends with %q; oracle wanted %v", c.name, last, c.wantOK)
			}
		}
	}
}

// TestCertifyMemoryDoesNotGrowWithTheTrace certifies mst/randomized at
// n=1024 as the run goes: what it allocates beyond the untraced run
// must stay under 5.5 bytes per trace event, where a recorder keeping
// the trace would hold 56 bytes per event in its event slice alone.
// It reads 4.4 to 4.8; an orderer whose round buffer grows by doubling
// instead of being sized once per run reads 6.2 to 6.7.
func TestCertifyMemoryDoesNotGrowWithTheTrace(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	g := sleepmst.RandomConnected(1024, 2048, 3)
	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := allocated(func() {
		if _, err := p.Run(g, sleepmst.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	var c problem.Certified
	certified := allocated(func() {
		if c, err = problem.Certify(p, g, sleepmst.Options{Seed: 1}, nil); err != nil || !c.Verdict.Pass {
			t.Fatalf("err %v, verdict:\n%s", err, c.Verdict)
		}
	})
	extra := float64(certified) - float64(plain)
	perEvent := extra / float64(c.Meta.Events)
	t.Logf("certifying allocated %.0f bytes beyond the untraced run's %d, %.1f per event of %d", extra, plain, perEvent, c.Meta.Events)
	if perEvent >= 5.5 {
		t.Errorf("%.1f bytes per event; want under 5.5", perEvent)
	}
}
