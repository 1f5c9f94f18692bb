package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sleepmst"
	"sleepmst/internal/conform"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
)

// verdictArtifact is the -conform-out JSON shape: a schema stamp plus
// one verdict per checked run.
type verdictArtifact struct {
	Schema   int                `json:"schema"`
	Verdicts []*conform.Verdict `json:"verdicts"`
}

// flagWasSet reports whether the named flag was given on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// conformCommand implements -exp conform. With traceIn it checks an
// existing JSONL stream (algoHint names its problem — a qualified name
// like mis or mst/randomized, or a bare MST alias — so its awake
// envelope can be checked); otherwise it runs every listed problem at
// the largest -sizes value and checks each fresh trace as the run goes
// (problem.Certify), appending the problem's correctness oracle
// (MST-weight agreement against Kruskal, or MIS validity). Unknown
// problem names are rejected with the list of valid choices. Verdicts
// are printed, optionally written to outPath as JSON, and any failed
// invariant makes the exit status non-zero.
func (h *harness) conformCommand(algoList, traceIn, algoHint, outPath string) int {
	var verdicts []*conform.Verdict
	if traceIn != "" {
		info := conform.RunInfo{Algorithm: algoHint}
		if algoHint != "" {
			p, err := problem.Lookup(algoHint)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mstbench:", err)
				return 1
			}
			info.Algorithm = p.Name()
			info.Budget = p.Budget
		}
		f, err := os.Open(traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		meta, events, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		fmt.Printf("=== trace conformance: %s ===\n", traceIn)
		v := conform.CheckTrace(meta, events, info)
		fmt.Print(v)
		verdicts = append(verdicts, v)
	} else {
		n := h.ns[len(h.ns)-1]
		fmt.Println("=== trace conformance (fresh runs, strict catalog) ===")
		for _, name := range strings.Split(algoList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			p, err := problem.Lookup(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mstbench:", err)
				return 1
			}
			g := sleepmst.RandomConnected(n, h.deg*n, int64(n*1000))
			// With -transport, the checked trace is produced over the
			// wire backend; the verdict must not change (the transport
			// differential suite pins this).
			tx, err := sleepmst.ParseTransport(h.txName)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mstbench:", err)
				return 1
			}
			c, err := problem.Certify(p, g, sleepmst.Options{Seed: 1, Transport: tx}, nil)
			if tx != nil {
				tx.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "mstbench:", err)
				return 1
			}
			v := c.Verdict
			fmt.Print(v)
			fmt.Println()
			verdicts = append(verdicts, v)
		}
	}
	if outPath != "" {
		if err := writeVerdictFile(outPath, verdicts); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	for _, v := range verdicts {
		if !v.Pass {
			return 1
		}
	}
	return 0
}

// writeVerdictFile serializes the verdicts as an indented JSON
// artifact.
func writeVerdictFile(path string, verdicts []*conform.Verdict) error {
	data, err := json.MarshalIndent(verdictArtifact{Schema: conform.VerdictSchema, Verdicts: verdicts}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
