package core

import (
	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// Block layout of one Randomized-MST phase (§2.2). Each entry is one
// transmission-schedule block of 2n+1 rounds; a phase is the fixed
// sequence below, so every node derives its wake rounds locally.
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

// taMOEMsg is exchanged in the rbTAMOE block.
type taMOEMsg struct {
	fragID int64
	coin   bool // sender fragment's coin (true = heads)
	isMOE  bool // this edge is the sender fragment's MOE
}

func (m taMOEMsg) Bits() int { return ldt.FieldBits(m.fragID) + 2 }

func (taMOEMsg) MsgKind() string { return "ta-moe" }

// randPhase runs one phase. It returns (done, merged): done means the
// fragment spans the graph (no outgoing edge) and the node may halt.
func (c *nodeCtx) randPhase(phaseStart int64) (done bool) {
	bs := func(b int) int64 { return phaseStart + int64(b)*c.blk }

	// Step (i): find the fragment MOE.
	c.taFragment(bs(rbTAFrag))
	moe := c.upcastMOE(bs(rbUpMOE))

	var rootMsg *bcastMOEMsg
	if c.st.IsRoot() {
		rootMsg = &bcastMOEMsg{coin: c.nd.Rand().Intn(2) == 0}
		if moe != nil {
			rootMsg.exists = true
			rootMsg.moe = *moe
		}
	}
	ph := c.broadcastMOE(bs(rbBcastMOE), rootMsg)
	c.stepDone(trace.StepFindMOE)
	if !ph.exists {
		// No outgoing edge: the fragment spans the (connected) graph.
		return true
	}
	owner := c.isMOEOwner(&ph.moe)

	// Restrict to valid MOEs: only tails -> heads edges survive.
	c.nd.Metrics().Add("moe/probes", int64(c.nd.Degree()))
	out := c.nd.Outbox()
	mark := interface{}(taMOEMsg{fragID: c.st.FragID, coin: ph.coin})
	for p := range out {
		out[p] = mark
	}
	if owner {
		out[ph.moe.ownerPort] = taMOEMsg{fragID: c.st.FragID, coin: ph.coin, isMOE: true}
	}
	in := ldt.TransmitAdjacent(c.nd, bs(rbTAMOE), out)
	c.stepDone(trace.StepMarkMOE)

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
	maxPhases := opts.MaxPhases
	if maxPhases <= 0 {
		maxPhases = RandomizedPhaseBound(g.N())
	}
	states := ldt.SingletonStates(g)
	rec := newPhaseRecorder(opts.RecordPhases, g.N(), maxPhases)
	phasesRun := make([]int, g.N())

	res, err := sim.Run(opts.simConfig(g), func(nd *sim.Node) error {
		c := newNodeCtx(nd, states[nd.Index()])
		blkPerPhase := int64(randPhaseBlocks) * c.blk
		for p := 0; p < maxPhases; p++ {
			c.beginPhase(p + 1)
			done := c.randPhase(1 + int64(p)*blkPerPhase)
			rec.record(p, nd.Index(), c.st.FragID)
			phasesRun[nd.Index()] = p + 1
			if done {
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	maxP := 0
	for _, p := range phasesRun {
		if p > maxP {
			maxP = p
		}
	}
	return finishOutcome(g, states, res, maxP, rec.counts(maxP))
}
