package conform

import "sleepmst/internal/trace"

// TB is the subset of *testing.T the suite needs; an interface so the
// package carries no testing import into non-test binaries.
type TB interface {
	// Helper marks the caller as a test helper.
	Helper()
	// Errorf reports a test failure.
	Errorf(format string, args ...interface{})
}

// Suite bundles one recorded run for conformance assertion in tests:
// the trace, its run context, and the problem's oracle checks.
// Callers run the algorithm with a trace.Recorder, then hand the
// recorder's Meta()/Events() here — the suite itself runs nothing,
// which keeps it usable from any package without import cycles.
type Suite struct {
	// Info is the run context (algorithm, n, seed, relaxations).
	Info RunInfo
	// Meta is the trace's run-level header.
	Meta trace.Meta
	// Events is the trace in canonical order.
	Events []trace.Event
	// Extra holds the checks appended after the trace catalog: the
	// problem's oracle, such as the mst-weight check built by
	// WeightCheck or the mis-valid check built by MISCheck.
	Extra []Check
}

// Verdict runs the invariant catalog and returns the verdict.
func (s Suite) Verdict() *Verdict {
	v := CheckTrace(s.Meta, s.Events, s.Info)
	for _, c := range s.Extra {
		v.Append(c)
	}
	return v
}

// Assert runs the catalog and reports every failed check on t. It
// returns the verdict so tests can inspect skips or details.
func (s Suite) Assert(t TB) *Verdict {
	t.Helper()
	v := s.Verdict()
	for _, c := range v.Failures() {
		t.Errorf("conformance %s/n=%d: %s failed: %s (%d violations)", v.Algo, v.N, c.Name, c.Detail, c.Violations)
	}
	return v
}
