package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"sleepmst/internal/graph"
	"sleepmst/internal/modelcheck"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// mcFlags carries the -exp modelcheck flag values from main.
type mcFlags struct {
	topo      string
	problem   string
	depth     int
	seed      int64
	oversleep int
	faults    bool
	slack     float64
	noMemo    bool
	out       string
	cex       string
}

// parseTopo resolves a small-topology spec — a family name with a
// trailing node count, e.g. path2, ring4, star5, k4 — into a graph
// with distinct deterministic edge weights.
func parseTopo(spec string, seed int64) (*graph.Graph, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	name, digits := s[:i], s[i:]
	if name == "" || digits == "" {
		return nil, fmt.Errorf("bad topology %q (want path<n>|ring<n>|star<n>|k<n>, e.g. ring4)", spec)
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 2 {
		return nil, fmt.Errorf("bad topology size in %q", spec)
	}
	cfg := graph.GenConfig{Seed: seed}
	switch name {
	case "path":
		return graph.Path(n, cfg), nil
	case "ring", "cycle":
		if n < 3 {
			return nil, fmt.Errorf("ring needs n >= 3, got %q", spec)
		}
		return graph.Cycle(n, cfg), nil
	case "star":
		return graph.Star(n, cfg), nil
	case "k", "complete":
		return graph.Complete(n, cfg), nil
	}
	return nil, fmt.Errorf("unknown topology family %q (want path<n>|ring<n>|star<n>|k<n>)", spec)
}

// modelcheckCommand implements -exp modelcheck: exhaustively explore
// every admissible schedule of the problem on the small -topo
// topology up to -depth non-default choices, checking the invariant
// catalog plus the problem oracle on every schedule. The verdict goes
// to stdout and, with -mc-out, to a schema-versioned JSON artifact;
// with -mc-cex PREFIX, the production baseline and every retained
// counterexample are written as PREFIX.baseline.jsonl and
// PREFIX.cexN.jsonl for cmd/tracediff. Any violation makes the exit
// status non-zero.
func (h *harness) modelcheckCommand(mc mcFlags) int {
	g, err := parseTopo(mc.topo, mc.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		return 1
	}
	p, err := problem.Lookup(mc.problem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		return 1
	}
	v, err := modelcheck.Explore(modelcheck.Config{
		Problem:     p,
		Graph:       g,
		Seed:        mc.seed,
		Depth:       mc.depth,
		Oversleep:   mc.oversleep,
		Faults:      mc.faults,
		BudgetSlack: mc.slack,
		Workers:     h.workers,
		NoMemo:      mc.noMemo,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		return 1
	}
	fmt.Printf("=== bounded model check: %s on %s ===\n", p.Name(), mc.topo)
	fmt.Println(v)
	if mc.out != "" {
		if err := writeModelCheckFile(mc.out, v); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", mc.out)
	}
	if mc.cex != "" {
		if err := writeCounterexamples(mc.cex, v); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
	}
	if !v.Pass {
		return 1
	}
	return 0
}

// writeModelCheckFile serializes the verdict as an indented JSON
// artifact.
func writeModelCheckFile(path string, v *modelcheck.Verdict) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := v.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCounterexamples emits the baseline schedule's trace plus every
// retained counterexample as JSONL streams, ready for
// `tracediff PREFIX.baseline.jsonl PREFIX.cex1.jsonl`.
func writeCounterexamples(prefix string, v *modelcheck.Verdict) error {
	write := func(path string, meta trace.Meta, events []trace.Event) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.WriteEventsJSONL(f, meta, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	if err := write(prefix+".baseline.jsonl", v.BaselineMeta, v.BaselineEvents); err != nil {
		return err
	}
	for i, viol := range v.Violations {
		if err := write(fmt.Sprintf("%s.cex%d.jsonl", prefix, i+1), viol.Meta, viol.Events); err != nil {
			return err
		}
	}
	return nil
}
