// Package trace is the observability layer: the Sink the simulator
// reports a run's structured events to, an online orderer that
// releases each passed round in canonical order (Orderer), a recorder
// that keeps the first events it releases (Recorder) and a JSONL
// render of its rounds (JSONL), both in a stable JSONL schema, a
// per-phase awake-budget report over recorded events (Summarize), and
// ASCII renderers for awake schedules (Timeline, Histogram). It is a leaf package — the simulator imports
// it, never the reverse — so renderers consume a RunView projection
// instead of a simulator result.
package trace

import (
	"fmt"
	"strings"
)

// RunView is the renderer-facing projection of a simulation result:
// just the awake schedule and crash schedule, decoupled from the
// simulator so this package stays import-cycle-free. Build one with
// sim.Result.TraceView, or by hand in tests.
type RunView struct {
	// Rounds is the last busy round of the run.
	Rounds int64
	// AwakePerNode holds each node's total awake rounds.
	AwakePerNode []int64
	// AwakeRounds holds, per node, the sorted rounds it was awake
	// (nil when the run did not record them).
	AwakeRounds [][]int64
	// CrashRound holds, per node, the round it was crash-stopped
	// (0 = never crashed); may be empty for fault-free runs.
	CrashRound []int64
}

// Clip returns a view restricted to the first n nodes, for rendering
// a prefix of a large run.
func (v RunView) Clip(n int) RunView {
	if len(v.AwakePerNode) > n {
		v.AwakePerNode = v.AwakePerNode[:n]
	}
	if len(v.AwakeRounds) > n {
		v.AwakeRounds = v.AwakeRounds[:n]
	}
	if len(v.CrashRound) > n {
		v.CrashRound = v.CrashRound[:n]
	}
	return v
}

// Timeline renders one line per node: the run's [1, Rounds] interval
// is split into width buckets and a bucket is marked '#' if the node
// was awake in any of its rounds ('.' otherwise). A node crash-stopped
// by a chaos interceptor renders 'x' from its crash round onward.
//
// Rounds outside [1, Rounds] are clamped to the first/last column.
// This matters for crash rounds: a chaos policy may schedule a crash
// past the round the run actually ended in, and the marker is then
// pinned to the last column with the note flagging it "(after end)"
// rather than being dropped. Requires the run to have been executed
// with Config.RecordAwakeRounds.
func Timeline(v RunView, width int) string {
	if v.AwakeRounds == nil {
		return "trace: awake rounds were not recorded (set RecordAwakeRounds)\n"
	}
	if width <= 0 {
		width = 64
	}
	total := v.Rounds
	if total == 0 {
		return "trace: empty run\n"
	}
	crashed := false
	for _, cr := range v.CrashRound {
		if cr > 0 {
			crashed = true
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rounds 1..%d, %d columns (~%d rounds each); '#' = awake",
		total, width, (total+int64(width)-1)/int64(width))
	if crashed {
		b.WriteString(", 'x' = crashed")
	}
	b.WriteByte('\n')
	for n, rounds := range v.AwakeRounds {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, r := range rounds {
			idx := bucket(r, total, width)
			line[idx] = '#'
		}
		note := ""
		if n < len(v.CrashRound) && v.CrashRound[n] > 0 {
			cr := v.CrashRound[n]
			for i := bucket(cr, total, width); i < width; i++ {
				line[i] = 'x'
			}
			note = fmt.Sprintf(" crashed@%d", cr)
			if cr > total {
				note += " (after end)"
			}
		}
		fmt.Fprintf(&b, "node %4d |%s| awake=%d%s\n", n, line, v.AwakePerNode[n], note)
	}
	return b.String()
}

// bucket maps round r in [1, total] to a column, clamping rounds
// outside the run (e.g. a crash scheduled past the last busy round)
// to the nearest edge column.
func bucket(r, total int64, width int) int {
	idx := int((r - 1) * int64(width) / total)
	if idx < 0 {
		idx = 0
	}
	if idx >= width {
		idx = width - 1
	}
	return idx
}

// Histogram renders the distribution of per-node awake counts.
// Crash-stopped nodes are tallied separately and annotated per row,
// so a cluster of crashed nodes at awake=0 is not mistaken for nodes
// that legitimately slept through the run.
func Histogram(v RunView, barWidth int) string {
	if barWidth <= 0 {
		barWidth = 50
	}
	counts := map[int64]int{}
	crashCounts := map[int64]int{}
	var maxAwake int64
	for n, a := range v.AwakePerNode {
		counts[a]++
		if n < len(v.CrashRound) && v.CrashRound[n] > 0 {
			crashCounts[a]++
		}
		if a > maxAwake {
			maxAwake = a
		}
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	b.WriteString("awake rounds : #nodes\n")
	for a := int64(0); a <= maxAwake; a++ {
		c, ok := counts[a]
		if !ok {
			continue
		}
		bar := strings.Repeat("#", c*barWidth/maxCount)
		if bar == "" && c > 0 {
			bar = "#"
		}
		fmt.Fprintf(&b, "%12d : %-*s %d", a, barWidth, bar, c)
		if cc := crashCounts[a]; cc > 0 {
			fmt.Fprintf(&b, " (%d crashed)", cc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
