package core

import (
	"errors"
	"fmt"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
)

// This file builds the classic sleeping-model primitives — leader
// election, spanning tree construction, and global aggregation — on
// top of the awake-optimal MST machinery. The paper contrasts its
// result with Barenboim–Maimon's O(log n)-awake spanning tree and
// leader election [2]; here those problems fall out of the MST
// construction: the final fragment is a spanning tree whose root is a
// natural leader, and one extra upcast/broadcast block pair turns it
// into an O(1)-awake aggregation backbone.

// LeaderResult reports a leader election.
type LeaderResult struct {
	// LeaderID is the elected leader's node ID; every node knows it.
	LeaderID int64
	// KnownBy[i] is what node i believes the leader to be (test hook;
	// all entries equal LeaderID on success).
	KnownBy []int64
	// Result carries the run's metrics.
	Result *sim.Result
}

// ElectLeader elects a unique leader known to every node in O(log n)
// awake rounds w.h.p.: the root of the final MST fragment. (Any
// spanning structure would do — the MST machinery already provides
// one with optimal awake complexity.)
func ElectLeader(g *graph.Graph, opts Options) (*LeaderResult, error) {
	out, err := RunRandomized(g, opts)
	if err != nil {
		return nil, err
	}
	res := &LeaderResult{KnownBy: make([]int64, g.N()), Result: out.Result}
	for v, st := range out.States {
		res.KnownBy[v] = st.FragID // fragment ID == root ID == leader
	}
	res.LeaderID = res.KnownBy[0]
	for v, id := range res.KnownBy {
		if id != res.LeaderID {
			return nil, fmt.Errorf("core: leader disagreement at node %d: %d vs %d", v, id, res.LeaderID)
		}
	}
	return res, nil
}

// SpanningTree constructs a rooted spanning tree (with parent/child
// knowledge and root distance at every node) in O(log n) awake rounds
// w.h.p. — the Barenboim–Maimon guarantee, here with the bonus that
// the tree is the MST.
func SpanningTree(g *graph.Graph, opts Options) (*Outcome, error) {
	return RunRandomized(g, opts)
}

// AggregateResult reports a global aggregation.
type AggregateResult struct {
	// Value is the global minimum; every node learned it.
	Value int64
	// PerNode[i] is the value node i ended up holding (test hook).
	PerNode []int64
	// Result carries the run's metrics.
	Result *sim.Result
	// Phases is the number of MST phases before the aggregation.
	Phases int
}

// AggregateMin computes the global minimum of one int64 per node and
// delivers it to every node, in O(log n) awake rounds w.h.p.: the MST
// construction provides the LDT backbone, then a single Upcast-Min
// block followed by one Fragment-Broadcast block (O(1) extra awake
// rounds) completes the aggregation. Other decomposable aggregates
// (max, sum, count) follow the same pattern.
func AggregateMin(g *graph.Graph, values []int64, opts Options) (*AggregateResult, error) {
	if len(values) != g.N() {
		return nil, fmt.Errorf("core: %d values for %d nodes", len(values), g.N())
	}
	if err := checkInput(g); err != nil {
		return nil, err
	}
	perNode := make([]int64, g.N())
	// Epilogue: one Upcast-Min block, then one Fragment-Broadcast block.
	out, err := runPhases(g, opts, RandomizedPhaseBound(g.N()), randPhaseBlocks, (*nodeCtx).randPhase,
		func(c *nodeCtx, start int64) error {
			v := values[c.nd.Index()]
			rootMin, _ := ldt.UpcastMin(c.nd, c.st, start, ldt.MinItem{Key: graph.WeightKey{W: v}, Payload: intPayload(v)}, true)
			var payload intPayload
			if c.st.IsRoot() {
				payload = intPayload(rootMin.Key.W)
			}
			perNode[c.nd.Index()] = int64(ldt.Broadcast(c.nd, c.st, start+c.blk, payload))
			return nil
		})
	if err != nil {
		return nil, err
	}
	res := &AggregateResult{PerNode: perNode, Result: out.Result, Phases: out.Phases, Value: perNode[0]}
	for v, x := range perNode {
		if x != res.Value {
			return nil, fmt.Errorf("core: aggregation disagreement at node %d: %d vs %d", v, x, res.Value)
		}
	}
	return res, nil
}

// BroadcastFrom delivers the value held by the source node to every
// node in O(log n) awake rounds w.h.p.: MST construction, an upcast of
// the source's value to the root, and a broadcast down.
func BroadcastFrom(g *graph.Graph, source int, value int64, opts Options) (*AggregateResult, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("core: source %d out of range", source)
	}
	if err := checkInput(g); err != nil {
		return nil, err
	}
	perNode := make([]int64, g.N())
	// Epilogue: upcast the source's value to the root, then broadcast it.
	out, err := runPhases(g, opts, RandomizedPhaseBound(g.N()), randPhaseBlocks, (*nodeCtx).randPhase,
		func(c *nodeCtx, start int64) error {
			var mine interface{}
			if c.nd.Index() == source {
				mine = intPayload(value)
			}
			rootGot := c.upcastFirst(start, mine)
			var payload intPayload
			if c.st.IsRoot() {
				if rootGot == nil {
					return errors.New("source value never reached the root")
				}
				payload = rootGot.(intPayload)
			}
			perNode[c.nd.Index()] = int64(ldt.Broadcast(c.nd, c.st, start+c.blk, payload))
			return nil
		})
	if err != nil {
		return nil, err
	}
	res := &AggregateResult{PerNode: perNode, Result: out.Result, Value: perNode[0]}
	for v, x := range perNode {
		if x != value {
			return nil, fmt.Errorf("core: broadcast failed at node %d: got %d want %d", v, x, value)
		}
	}
	return res, nil
}
