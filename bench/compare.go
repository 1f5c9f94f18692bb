package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// grouped holds one set's values per workload and metric, and its
// output digests per workload.
type grouped struct {
	values  map[string]map[string][]float64
	digests map[string]map[string]bool
	failed  bool
}

func group(runs []*result) grouped {
	g := grouped{values: map[string]map[string][]float64{}, digests: map[string]map[string]bool{}}
	for _, r := range runs {
		if g.values[r.Workload] == nil {
			g.values[r.Workload] = map[string][]float64{}
			g.digests[r.Workload] = map[string]bool{}
		}
		for k, v := range r.Metrics {
			g.values[r.Workload][k] = append(g.values[r.Workload][k], v)
		}
		g.digests[r.Workload][r.Digest] = true
		g.failed = g.failed || !r.Correct
	}
	return g
}

// summarize prints each workload's metric medians and spreads over the
// runs of one set, and reports whether a workload's output digest
// differed between runs.
func summarize(spec *benchSpec, runs []*result, w io.Writer) (digestMismatch bool) {
	g := group(runs)
	for _, wl := range sortedKeys(g.values) {
		fmt.Fprintf(w, "\n%s (%d runs)\n", wl, len(g.values[wl]["setup_s"]))
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			xs := g.values[wl][m.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-28s %14.6g %-6s  q1 %-12.6g q3 %-12.6g spread %5.1f%%\n", m.Name, median(xs), m.Unit, q1, q3, 100*spread(xs))
		}
		if len(g.digests[wl]) > 1 {
			fmt.Fprintf(w, "  output_digest differs between runs\n")
			digestMismatch = true
		}
	}
	return digestMismatch
}

// compareSets compares set B against baseline set A, each given as a
// file pattern, metric by metric and workload by workload. It returns
// 1 on a regression past a metric's bound, a digest mismatch or a
// failed run.
func compareSets(spec *benchSpec, patternA, patternB string, w io.Writer) int {
	var sets [2]grouped
	for i, pattern := range []string{patternA, patternB} {
		runs, err := loadRuns(pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = group(runs)
	}
	a, b := sets[0], sets[1]
	status := 0
	if a.failed || b.failed {
		fmt.Fprintln(w, "a run failed its correctness check")
		status = 1
	}
	for _, wl := range sortedKeys(a.values) {
		if b.values[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-28s %12s %12s %8s %7s  %s\n", wl, "metric", "A median", "B median", "delta", "bound", "verdict")
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			xa, xb := a.values[wl][m.Name], b.values[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / math.Abs(ma)
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "-"
			if m.Bound > 0 {
				switch {
				case spread(xa) > m.Bound || spread(xb) > m.Bound:
					verdict = "unresolved"
				case worse > m.Bound:
					verdict = "REGRESSION"
					status = 1
				case worse < -m.Bound:
					verdict = "better"
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(w, "  %-28s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n", m.Name, ma, mb, 100*delta, 100*m.Bound, verdict)
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			fmt.Fprintf(w, "  %-28s   q1-q3 A %.6g..%.6g  B %.6g..%.6g\n", "", qa1, qa3, qb1, qb3)
		}
		if len(a.digests[wl]) != 1 || len(b.digests[wl]) != 1 || sortedKeys(a.digests[wl])[0] != sortedKeys(b.digests[wl])[0] {
			fmt.Fprintf(w, "  output_digest MISMATCH: A %v, B %v\n", sortedKeys(a.digests[wl]), sortedKeys(b.digests[wl]))
			status = 1
		}
	}
	return status
}

// loadRuns reads the runs of every results file matching pattern.
func loadRuns(pattern string) ([]*result, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, errors.New("no results file matches " + pattern)
	}
	var runs []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var set resultSet
		if err := json.Unmarshal(data, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, set.Runs...)
	}
	return runs, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
