// Package metrics is a small deterministic counter registry for
// simulation runs: named monotone counters (Add) and high-water marks
// (Max) that the simulator, the LDT primitives, and the core
// algorithms bump while running. Because both operations are
// commutative and associative, the final value of every metric is
// independent of goroutine interleaving, and MergeAll folds per-run
// registries from a sweep worker pool into an aggregate that is
// byte-identical for any worker count as long as it is called in grid
// order (which internal/sweep guarantees).
//
// Metric names are slash-separated paths; the instrumented names are
// listed in DESIGN.md §8:
//
//	awake/step/<step>    awake rounds per phase step (find-moe, ...)
//	awake/phase/<NNN>    awake rounds per zero-padded phase number
//	moe/probes           Transmit-Adjacent probe messages for MOEs
//	moe/candidates       local MOE candidates upcast to fragment roots
//	merge/waves          Merging-Fragments wave executions
//	merge/depth/max      deepest pre-merge fragment level (Max metric)
//	msgs/type/<label>    delivered messages per codec label
//	awake/node-avg/sum   total awake rounds summed over all nodes
//	awake/node-avg/nodes node count, denominator of the node average
//
// The awake/node-avg/* pair is recorded by the simulator for every
// run, so the node-averaged awake complexity (Chatterjee–Gmyr–
// Pandurangan) of any problem is sum ÷ nodes — see NodeAvgAwake.
// Both components are plain counters, so the pair stays exact under
// Merge: a sweep's aggregate average is the run-length-weighted mean,
// independent of worker count and fold order.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sleepmst/internal/trace"
)

// Registry holds named counters and high-water marks for one run (or,
// after MergeAll, for a whole sweep). The zero value is not usable;
// call New. All methods are safe for concurrent use; a nil *Registry
// is a valid no-op sink so instrumented code never branches.
type Registry struct {
	mu     sync.Mutex
	counts map[string]int64
	maxes  map[string]int64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{counts: map[string]int64{}, maxes: map[string]int64{}}
}

// Add increments counter name by delta. No-op on a nil registry.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
}

// Max raises high-water mark name to v if v is larger. No-op on a nil
// registry.
func (r *Registry) Max(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if v > r.maxes[name] {
		r.maxes[name] = v
	}
	r.mu.Unlock()
}

// Get returns counter name's value (0 if absent or nil registry).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// GetMax returns high-water mark name's value (0 if absent or nil
// registry).
func (r *Registry) GetMax(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxes[name]
}

// Merge folds other into r: counters add, high-water marks take the
// max. Merging is commutative, so any fold order yields the same
// registry; call it in grid order anyway when aggregating sweep
// workers so intermediate snapshots are reproducible too.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	oc := make(map[string]int64, len(other.counts))
	for k, v := range other.counts {
		oc[k] = v
	}
	om := make(map[string]int64, len(other.maxes))
	for k, v := range other.maxes {
		om[k] = v
	}
	other.mu.Unlock()
	r.mu.Lock()
	for k, v := range oc {
		r.counts[k] += v
	}
	for k, v := range om {
		if v > r.maxes[k] {
			r.maxes[k] = v
		}
	}
	r.mu.Unlock()
}

// MergeAll folds every registry of regs (nil entries skipped) into a
// fresh aggregate, in slice order. Pass sweep results in grid order —
// internal/sweep already returns them that way — and the aggregate is
// identical for any worker count.
func MergeAll(regs []*Registry) *Registry {
	out := New()
	for _, r := range regs {
		out.Merge(r)
	}
	return out
}

// Metric is one named value in a registry snapshot.
type Metric struct {
	// Name is the slash-separated metric path.
	Name string
	// Value is the counter total or high-water mark.
	Value int64
	// IsMax reports whether the metric is a high-water mark rather
	// than a counter.
	IsMax bool
}

// Snapshot returns every metric sorted by name (marks after counters
// of the same name). The order is deterministic, making snapshots
// directly comparable in tests and stable in reports.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counts)+len(r.maxes))
	for k, v := range r.counts {
		out = append(out, Metric{Name: k, Value: v})
	}
	for k, v := range r.maxes {
		out = append(out, Metric{Name: k, Value: v, IsMax: true})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return !out[i].IsMax && out[j].IsMax
	})
	return out
}

// String renders the snapshot one metric per line, `name = value`,
// with `(max)` marking high-water marks.
func (r *Registry) String() string {
	var b strings.Builder
	for _, m := range r.Snapshot() {
		if m.IsMax {
			fmt.Fprintf(&b, "%-24s = %d (max)\n", m.Name, m.Value)
		} else {
			fmt.Fprintf(&b, "%-24s = %d\n", m.Name, m.Value)
		}
	}
	return b.String()
}

// PhaseName returns the canonical zero-padded awake/phase/<NNN>
// metric name for 1-based phase p, so lexicographic snapshot order
// matches numeric phase order. Phases below len(phaseNames) take a
// name built once.
func PhaseName(p int) string {
	if p >= 0 && p < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("awake/phase/%03d", p)
}

// StepName returns the canonical awake/step/<step> metric name. Every
// declared step takes a name built once.
func StepName(step trace.Step) string {
	if int(step) < len(stepNames) {
		return stepNames[step]
	}
	return "awake/step/" + step.String()
}

// phaseNames and stepNames hold the attribution counters' names, which
// a run with a registry looks up once per node per step.
var (
	phaseNames [256]string
	stepNames  [len(trace.Steps) + 1]string
)

func init() {
	for p := range phaseNames {
		phaseNames[p] = fmt.Sprintf("awake/phase/%03d", p)
	}
	for s := range stepNames { // StepNone, then trace.Steps
		stepNames[s] = "awake/step/" + trace.Step(s).String()
	}
}

// MsgName returns the canonical msgs/type/<label> metric name.
func MsgName(label string) string {
	return "msgs/type/" + label
}

// Service-level request accounting, recorded by internal/service for
// every request the persistent MST service admits or rejects. All of
// these are plain counters, so a service registry — per-request run
// registries folded together plus these — is byte-identical for any
// worker count and any completion order.
const (
	// ServiceRequests counts every request that reached admission,
	// accepted or not.
	ServiceRequests = "service/requests/total"
	// ServiceBadFrames counts undecodable request frames answered
	// with the malformed-frame response and a hang-up.
	ServiceBadFrames = "service/frames/bad"
)

// ServiceStatusName returns the canonical service/status/<status>
// metric name tallying requests by response status.
func ServiceStatusName(status string) string { return "service/status/" + status }

// ServiceProblemName returns the canonical service/problem/<name>
// metric name tallying completed runs per problem.
func ServiceProblemName(problem string) string { return "service/problem/" + problem }

// Node-averaged awake accounting, recorded by the simulator at the end
// of every run that carries a registry.
const (
	// NodeAvgSum is the counter holding sum_v A_v: every node's awake
	// rounds, summed over all nodes and (after Merge) over all runs.
	NodeAvgSum = "awake/node-avg/sum"
	// NodeAvgNodes is the counter holding the node count, the
	// denominator of the node-averaged awake complexity; Merge adds
	// node counts across runs, keeping the aggregate ratio exact.
	NodeAvgNodes = "awake/node-avg/nodes"
)

// NodeAvgAwake returns the node-averaged awake complexity recorded in
// r: awake/node-avg/sum ÷ awake/node-avg/nodes, or 0 when the run (or
// merged sweep) recorded no nodes. On a merged registry this is the
// node-weighted mean over all folded runs, identical for every sweep
// worker count because both components are commutative counters.
func NodeAvgAwake(r *Registry) float64 {
	nodes := r.Get(NodeAvgNodes)
	if nodes == 0 {
		return 0
	}
	return float64(r.Get(NodeAvgSum)) / float64(nodes)
}
