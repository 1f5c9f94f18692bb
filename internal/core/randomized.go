package core

import (
	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/trace"
)

// Block layout of one Randomized-MST phase (§2.2). Each entry is one
// transmission-schedule block of 2n+1 rounds; a phase is the fixed
// sequence below, so every node derives its wake rounds locally. The
// first three blocks are step (i), which opens every phase layout
// (findMOE).
const (
	rbTAFrag     = 0 // Transmit-Adjacent: refresh (ID, fragID, level)
	rbUpMOE      = 1 // Upcast-Min: fragment MOE to root
	rbBcastMOE   = 2 // Fragment-Broadcast: MOE identity + coin flip
	rbTAMOE      = 3 // Transmit-Adjacent: mark MOEs, exchange coins
	rbUpValid    = 4 // Upcast: validity (tails -> heads) to root
	rbBcastMerge = 5 // Fragment-Broadcast: merge decision
	rbMergeStart = 6 // Merging-Fragments (3 blocks)

	randPhaseBlocks = rbMergeStart + ldt.MergeBlocks
)

// randPhase runs one phase from its first round start; done means the
// fragment spans the graph (no outgoing edge) and the node may halt.
func (c *nodeCtx) randPhase(start int64) (done bool) {
	bs := func(b int64) int64 { return start + b*c.blk }

	// Step (i): find the fragment MOE; the root flips the phase coin.
	ph := c.findMOE(start, true)
	if !ph.exists {
		// No outgoing edge: the fragment spans the (connected) graph.
		return true
	}
	owner := c.isMOEOwner(&ph.moe)
	ownerPort := -1
	if owner {
		ownerPort = ph.moe.ownerPort
	}

	// Restrict to valid MOEs: only tails -> heads edges survive.
	in := c.markMOE(bs(rbTAMOE), ph.coin, ownerPort)

	var validUp interface{}
	if owner {
		valid := false
		if raw := in[ph.moe.ownerPort]; raw != nil {
			target := raw.(taMOEMsg)
			valid = !ph.coin && target.coin // we are tails, target heads
		}
		validUp = boolPayload(valid)
	}
	rootValid := c.upcastFirst(bs(rbUpValid), validUp)
	c.stepDone(trace.StepValidate)

	var mergePayload boolPayload
	if c.st.IsRoot() {
		mergePayload = boolPayload(rootValid != nil && bool(rootValid.(boolPayload)))
	}
	merging := bool(ldt.Broadcast(c.nd, c.st, bs(rbBcastMerge), mergePayload))
	c.stepDone(trace.StepDecide)

	// Step (ii): merge along valid MOEs.
	dec := ldt.NoMerge
	if merging {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if owner {
			dec.AttachPort = ph.moe.ownerPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(rbMergeStart), dec)
	c.stepDone(trace.StepMerge)
	return false
}

// RunRandomized executes Algorithm Randomized-MST on g: O(log n) awake
// complexity w.h.p. and O(n log n) rounds. The returned outcome's
// MSTEdges is the unique MST of g.
func RunRandomized(g *graph.Graph, opts Options) (*Outcome, error) {
	if err := checkInput(g); err != nil {
		return nil, err
	}
	out, err := runPhases(g, opts, RandomizedPhaseBound(g.N()), randPhaseBlocks, (*nodeCtx).randPhase, nil)
	if err != nil {
		return nil, err
	}
	return finishOutcome(g, out)
}
