package modelcheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
)

// verdictDigestsPath holds the sha256 of each fixture's verdict JSON.
// Every row was produced identically by the event engine and by the
// retired goroutine engine. Regenerate it only for an intended
// behaviour change:
//
//	UPDATE_GOLDEN=1 go test -run TestEngineVerdictBytes ./internal/modelcheck/
var verdictDigestsPath = filepath.Join("testdata", "verdict_digests.json")

// chaosRows are the adversarial rows of the verdict table: every
// registered problem explored at depth 1 on ring4 and K4 with one
// branch kind widened, oversleep (Oversleep 1) or message drop
// (Faults). viol is each row's violation count, [oversleep, faults] ×
// [ring4, K4].
var chaosRows = []struct {
	problem string
	viol    [2][2]int
}{
	{"mis", [2][2]int{{4, 8}, {0, 4}}},
	{"mst/baseline", [2][2]int{{0, 0}, {1, 1}}},
	{"mst/deterministic", [2][2]int{{0, 0}, {1, 0}}},
	{"mst/ghs", [2][2]int{{0, 0}, {2, 2}}},
	{"mst/logstar", [2][2]int{{0, 0}, {1, 0}}},
	{"mst/randomized", [2][2]int{{0, 0}, {1, 1}}},
}

// TestEngineVerdictBytes pins the verdict JSON of the hand-counted
// exhaustiveness fixtures (path2/ring3, the TestExhaustiveness pins),
// of the seeded budget-regression exploration and of the chaosRows:
// every coverage counter, schedule count and counterexample trace must
// serialize to the committed bytes. The explorer's positional prefix
// replay depends on the hook's decision points being a total function
// of (graph, seed, program, prior choices); a scheduler change that
// reorders them fails here.
func TestEngineVerdictBytes(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	var want map[string]string
	if !update {
		raw, err := os.ReadFile(verdictDigestsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", verdictDigestsPath, err)
		}
	}
	path2 := graph.Path(2, graph.GenConfig{Seed: 1})
	ring3 := graph.Cycle(3, graph.GenConfig{Seed: 1})
	type verdictCase struct {
		name string
		cfg  Config
		viol int // the verdict's ViolationCount
	}
	cases := []verdictCase{
		{"path2", Config{Problem: chatterProblem{rounds: 2}, Graph: path2, Depth: 2, Workers: 1}, 0},
		{"ring3", Config{Problem: chatterProblem{rounds: 1}, Graph: ring3, Depth: 2, Workers: 1}, 0},
		{"path2/nomemo", Config{Problem: chatterProblem{rounds: 2}, Graph: path2, Depth: 2, Workers: 1, NoMemo: true}, 0},
		{"path2/seeded-bug", Config{Problem: chatterProblem{rounds: 2, buggy: true}, Graph: path2,
			Depth: 2, Oversleep: 1, BudgetSlack: 1.0, Workers: 1}, 4},
	}
	topos := [2]struct {
		name string
		g    *graph.Graph
	}{
		{"ring4", graph.Cycle(4, graph.GenConfig{Seed: 1})},
		{"k4", graph.Complete(4, graph.GenConfig{Seed: 1})},
	}
	for _, row := range chaosRows {
		p, err := problem.Lookup(row.problem)
		if err != nil {
			t.Fatal(err)
		}
		for ti, topo := range topos {
			cfg := Config{Problem: p, Graph: topo.g, Seed: 1, Depth: 1, Workers: 1}
			osl, flt := cfg, cfg
			osl.Oversleep = 1
			flt.Faults = true
			cases = append(cases,
				verdictCase{row.problem + "/" + topo.name + "/oversleep", osl, row.viol[0][ti]},
				verdictCase{row.problem + "/" + topo.name + "/faults", flt, row.viol[1][ti]})
		}
	}
	got := make(map[string]string)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Explore(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := v.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if v.ViolationCount != int64(tc.viol) {
				t.Errorf("%d violations, want %d", v.ViolationCount, tc.viol)
			}
			sum := sha256.Sum256(buf.Bytes())
			got[tc.name] = hex.EncodeToString(sum[:])
			if !update && got[tc.name] != want[tc.name] {
				t.Errorf("verdict JSON digest drifted (got %.12s, want %.12s):\n%s", got[tc.name], want[tc.name], buf.Bytes())
			}
		})
	}
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(verdictDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineRing4OversleepCounterexample re-finds E21's genuine
// counterexample: ring4 mst/randomized with one admissible oversleep
// has exactly two silently-wrong-tree schedules, found at deviation
// level 2.
func TestEngineRing4OversleepCounterexample(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oversleep exploration skipped in -short")
	}
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Explore(Config{
		Problem:   p,
		Graph:     graph.Cycle(4, graph.GenConfig{Seed: 1}),
		Seed:      1, // E21's seed: the finding is seed-specific
		Depth:     2,
		Oversleep: 1,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass || v.ViolationCount != 2 {
		t.Errorf("want 2 violations (E21 ring4 oversleep finding), got pass=%v count=%d", v.Pass, v.ViolationCount)
	}
	if v.DepthReached != 2 {
		t.Errorf("counterexamples at depth %d, want 2", v.DepthReached)
	}
}
