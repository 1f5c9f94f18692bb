package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/trace"
)

// The driver-digest table pins what the phase drivers do around the
// node programs, which no other table covers: the phase windows and
// their count, the RecordPhases fragment decay, the ID-space-dependent
// block layout of Deterministic-MST and log* (IDs 1..n and random IDs
// in [1, 4n]), the accept budget, the primitives' epilogue blocks, and
// the not-converged error texts. MST cells keep Phases and Fragments
// in clear and reduce the sim.Result JSON, the MST edges, the trace
// JSONL and the metrics registry to sha256 digests; primitive cells
// keep the delivered value, the reported phase count (BroadcastFrom
// reports none) and the sim.Result digest. Regenerate it only for an
// intended behaviour change:
//
//	UPDATE_GOLDEN=1 go test -run TestDriverDigests ./internal/core/

// driverDigestsPath is the committed table.
var driverDigestsPath = filepath.Join("testdata", "driver_digests.json")

// driverCell is one table entry; each kind of cell fills only its own
// fields.
type driverCell struct {
	Phases    int    `json:"phases,omitempty"`
	Fragments []int  `json:"fragments,omitempty"`
	Value     int64  `json:"value,omitempty"`
	Result    string `json:"result,omitempty"`
	MST       string `json:"mst,omitempty"`
	Trace     string `json:"trace,omitempty"`
	Metrics   string `json:"metrics,omitempty"`
	Error     string `json:"error,omitempty"`
}

func shaHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func shaJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return shaHex(b)
}

// driverMSTCell runs one MST algorithm with phases, trace and metrics
// recorded and reduces the run to a cell.
func driverMSTCell(t *testing.T, run func(*graph.Graph, Options) (*Outcome, error), g *graph.Graph, acceptBudget int) driverCell {
	t.Helper()
	rec := trace.NewRecorder(0)
	reg := metrics.New()
	out, err := run(g, Options{Seed: 1, RecordPhases: true, RecordAwakeRounds: true,
		AcceptBudget: acceptBudget, Trace: rec, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if err := rec.WriteJSONL(&tr); err != nil {
		t.Fatal(err)
	}
	return driverCell{
		Phases:    out.Phases,
		Fragments: out.FragmentsPerPhase,
		Result:    shaJSON(t, out.Result),
		MST:       shaJSON(t, out.MSTEdges),
		Trace:     shaHex(tr.Bytes()),
		Metrics:   shaHex([]byte(reg.String())),
	}
}

// driverCells computes every cell of one graph, keyed by prefix.
func driverCells(t *testing.T, prefix string, g *graph.Graph, cells map[string]driverCell) {
	t.Helper()
	mst := []struct {
		name    string
		run     func(*graph.Graph, Options) (*Outcome, error)
		budgets []int
	}{
		{"randomized", RunRandomized, []int{0}},
		{"deterministic", RunDeterministic, []int{0, 1}},
		{"logstar", RunLogStar, []int{0, 1}},
		{"baseline", RunBaseline, []int{0}},
	}
	for _, a := range mst {
		for _, b := range a.budgets {
			key := fmt.Sprintf("%s/%s", prefix, a.name)
			if len(a.budgets) > 1 {
				key = fmt.Sprintf("%s/accept=%d", key, b)
			}
			cells[key] = driverMSTCell(t, a.run, g, b)
		}
	}

	n := g.N()
	leader, err := ElectLeader(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells[prefix+"/elect-leader"] = driverCell{Value: leader.LeaderID, Result: shaJSON(t, leader.Result)}

	values := make([]int64, n)
	for v := range values {
		values[v] = int64(1000 + (v*7919)%997)
	}
	agg, err := AggregateMin(g, values, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells[prefix+"/aggregate-min"] = driverCell{Value: agg.Value, Phases: agg.Phases, Result: shaJSON(t, agg.Result)}

	bc, err := BroadcastFrom(g, n/2, 424242, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells[prefix+"/broadcast-from"] = driverCell{Value: bc.Value, Phases: bc.Phases, Result: shaJSON(t, bc.Result)}

	// One phase is never enough: pin how each driver reports that.
	_, err = RunRandomized(g, Options{Seed: 1, MaxPhases: 1})
	cells[prefix+"/randomized/max-phases=1"] = driverCell{Error: fmt.Sprint(err)}
	_, err = AggregateMin(g, values, Options{Seed: 1, MaxPhases: 1})
	cells[prefix+"/aggregate-min/max-phases=1"] = driverCell{Error: fmt.Sprint(err)}
}

// TestDriverDigests recomputes every cell and compares it with the
// committed table.
func TestDriverDigests(t *testing.T) {
	got := make(map[string]driverCell)
	for _, n := range []int{16, 64} {
		for _, ids := range []string{"seq", "random"} {
			g := graph.RandomConnected(n, 3*n, graph.GenConfig{Seed: int64(n)})
			if ids == "random" {
				graph.RandomIDs(g, 4*int64(n), int64(n))
			}
			driverCells(t, fmt.Sprintf("n=%d/ids=%s", n, ids), g, got)
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(driverDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(driverDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(driverDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", driverDigestsPath, err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, err := json.Marshal(got[k])
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: computed but missing from %s", k, driverDigestsPath)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, compact.Bytes()) {
			t.Errorf("%s drifted:\n got  %s\n want %s", k, g, compact.Bytes())
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: in %s but not computed", k, driverDigestsPath)
		}
	}
}
