package service

import (
	"sleepmst/internal/conform"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/transport"
)

// ArtifactSchema versions the certified-run artifact.
const ArtifactSchema = 1

// Artifact is the JSON artifact of one certified run: carried in
// Response.Artifact for every completed request (StatusOK or
// StatusViolation), and written by cmd/mstserve's one-shot cell (ID
// 0). It holds the conformance verdict, the sleeping-model run
// summary, and — when the run went over the tcp wire — the physical
// transport accounting.
type Artifact struct {
	Schema    int    `json:"schema"`
	ID        int64  `json:"id"`
	Problem   string `json:"problem"`
	Graph     string `json:"graph"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Seed      int64  `json:"seed"`
	Transport string `json:"transport,omitempty"`

	// Verdict is the conformance verdict over the run's trace plus the
	// problem's correctness oracle — byte-identical across backends.
	Verdict *conform.Verdict `json:"verdict"`

	// Run summarizes the sleeping-model accounting.
	Run RunSummary `json:"run"`

	// Wire is the physical transport accounting; timing-dependent
	// counters (retries, redials) live here and only here, never in
	// the deterministic service metrics registry.
	Wire *WireSummary `json:"wire,omitempty"`
}

// RunSummary is the sleeping-model accounting of one completed run.
type RunSummary struct {
	AwakeMax     int64   `json:"awake_max"`
	AwakeAvg     float64 `json:"awake_avg"`
	Rounds       int64   `json:"rounds"`
	BusyRounds   int64   `json:"busy_rounds"`
	Sent         int64   `json:"messages_sent"`
	Delivered    int64   `json:"messages_delivered"`
	Lost         int64   `json:"messages_lost"`
	BitsSent     int64   `json:"bits_sent"`
	MSTWeight    int64   `json:"mst_weight,omitempty"`
	Phases       int     `json:"phases,omitempty"`
	VerifyPassed bool    `json:"verify_passed"`
}

// NewRunSummary summarizes the completed run r; verified reports
// whether the problem's correctness oracle accepted it.
func NewRunSummary(r *problem.Result, verified bool) RunSummary {
	s := RunSummary{
		AwakeMax:     r.Sim.MaxAwake(),
		AwakeAvg:     r.Sim.MeanAwake(),
		Rounds:       r.Sim.Rounds,
		BusyRounds:   r.Sim.BusyRounds,
		Sent:         r.Sim.MessagesSent,
		Delivered:    r.Sim.MessagesDelivered,
		Lost:         r.Sim.MessagesLost,
		BitsSent:     r.Sim.BitsSent,
		Phases:       r.Phases,
		VerifyPassed: verified,
	}
	if r.Outcome != nil {
		s.MSTWeight = graph.TotalWeight(r.Outcome.MSTEdges)
	}
	return s
}

// WireSummary is the physical wire accounting of one request that ran
// over the tcp backend.
type WireSummary struct {
	FramesSent  int64 `json:"frames_sent"`
	FramesRecv  int64 `json:"frames_recv"`
	WireBytes   int64 `json:"wire_bytes"`
	Dials       int64 `json:"dials"`
	Redials     int64 `json:"redials,omitempty"`
	SendRetries int64 `json:"send_retries,omitempty"`
}

// NewWireSummary copies the tcp backend's counters into the
// artifact's wire section.
func NewWireSummary(w transport.Stats) WireSummary {
	return WireSummary{
		FramesSent:  w.FramesSent,
		FramesRecv:  w.FramesRecv,
		WireBytes:   w.WireBytes,
		Dials:       w.Dials,
		Redials:     w.Redials,
		SendRetries: w.SendRetries,
	}
}
