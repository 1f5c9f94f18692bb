package service

import "sleepmst/internal/conform"

// ArtifactSchema versions the per-request service artifact. It tracks
// cmd/mstserve's one-shot artifact shape (same run and wire summaries)
// with the request correlation id added.
const ArtifactSchema = 1

// Artifact is the per-request JSON artifact carried in
// Response.Artifact for every completed run (StatusOK or
// StatusViolation): the conformance verdict, the sleeping-model run
// summary, and — when the request ran over a metered wire backend —
// the physical transport accounting.
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

// WireSummary is the physical wire accounting of one request that ran
// over the tcp backend.
type WireSummary struct {
	FramesSent     int64 `json:"frames_sent"`
	FramesRecv     int64 `json:"frames_recv"`
	WireBytes      int64 `json:"wire_bytes"`
	Dials          int64 `json:"dials"`
	Redials        int64 `json:"redials,omitempty"`
	SendRetries    int64 `json:"send_retries,omitempty"`
	InjectedDrops  int64 `json:"injected_drops,omitempty"`
	InjectedDelays int64 `json:"injected_delays,omitempty"`
}
