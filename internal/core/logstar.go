package core

import (
	"sort"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// This file implements the Corollary 1 variant (§2.3 Remark): the
// O(nN)-round Fast-Awake-Coloring is replaced by a Cole–Vishkin style
// deterministic coloring of the fragment supergraph, which needs only
// O(log* N) iterations. The result is an MST algorithm with
// O(log n log* n) awake complexity and O(n log n log* n) rounds — no
// dependence on the ID space size N in the round complexity.
//
// The supergraph G' (fragments + accepted MOE edges) is oriented into
// a rooted forest: every G' edge is the accepted outgoing MOE of at
// least one of its two fragments, and following outgoing MOEs can only
// produce 2-cycles (mutual MOEs), which are broken toward the smaller
// fragment ID. Cole–Vishkin then maintains a coloring that is proper
// across parent edges — and hence across every G' edge — shrinking the
// palette from [1, N] to at most 8 colors in O(log* N) iterations.
// Eight final mini-stages (one per CV color class, which is an
// independent set) assign the paper's 5-color priority palette exactly
// as Fast-Awake-Coloring does, so the merging analysis is unchanged.

// cvMaxColors is the CV fixed-point palette bound: values in [0, 7].
const cvMaxColors = 8

// CVIterations returns the number of Cole–Vishkin iterations needed to
// shrink colors in [0, maxColor] to values < 8. All nodes compute it
// locally from N, so the block layout stays globally known.
func CVIterations(maxColor int64) int {
	iters := 0
	for maxColor >= cvMaxColors {
		bits := int64(0)
		for v := maxColor; v > 0; v >>= 1 {
			bits++
		}
		// New colors are 2k+b with k < bits, so at most 2(bits-1)+1.
		maxColor = 2*(bits-1) + 1
		iters++
	}
	return iters
}

// cvStep is one Cole–Vishkin color update: given own and parent colors
// (which must differ), return 2k+b where k is the lowest differing bit
// index and b is own bit k.
func cvStep(own, parent int64) int64 {
	diff := own ^ parent
	if diff == 0 {
		panic("core: CV invariant violated — child and parent share a color")
	}
	k := int64(0)
	for diff&1 == 0 {
		diff >>= 1
		k++
	}
	return 2*k + (own>>k)&1
}

// cvRootStep updates a CV root against a fake parent color.
func cvRootStep(own int64) int64 {
	fake := int64(0)
	if own == 0 {
		fake = 1
	}
	return cvStep(own, fake)
}

// cvColorMsg carries a fragment's current CV color.
type cvColorMsg struct {
	fragID int64
	color  int64
}

func (m cvColorMsg) Bits() int { return ldt.FieldBits(m.fragID) + ldt.FieldBits(m.color) }

func (cvColorMsg) MsgKind() string { return "cv-color" }

// cvColorList is the Up/Broadcast payload: CV colors of <= 4 neighbors.
type cvColorList []cvColorMsg

func (l cvColorList) Bits() int {
	b := 3
	for _, m := range l {
		b += m.Bits()
	}
	return b
}

func (cvColorList) MsgKind() string { return "cv-colors" }

// parentInfo is the orientation broadcast payload.
type parentInfo struct {
	hasParent bool
	fragID    int64 // the CV-parent fragment
}

func (m parentInfo) Bits() int { return 1 + ldt.FieldBits(m.fragID) }

func (parentInfo) MsgKind() string { return "cv-parent" }

// logStarBlocks returns the block count of one LogStar-MST phase.
func logStarBlocks(maxID int64) int64 {
	k := int64(CVIterations(maxID))
	// 9 step-(i) blocks, 2 orientation blocks, 3 per CV iteration,
	// 4 per mini-stage (8 stages), then 1+3+3 merge blocks.
	return 9 + 2 + 3*k + 4*cvMaxColors + 7
}

// logStarColoring produces the 5-color priority palette for this
// node's fragment using CV + 8 mini-stages, from the sparsification
// result sp; its per-edge flags are meaningful only at the MOE owner.
func (c *nodeCtx) logStarColoring(bs func(int64) int64, sp sparsified, owner bool, ownerPort int) Color {
	nbrInfo := sp.nbrInfo
	if len(nbrInfo) == 0 {
		// Isolated in G': Blue by the priority rule (no used colors).
		return Blue
	}
	maxID := c.nd.MaxID()
	iters := CVIterations(maxID)

	// Orientation: the fragment has a CV parent iff its outgoing MOE
	// was accepted. When the edge is a mutual MOE accepted in BOTH
	// directions, exactly one side may point (else a 2-cycle): the
	// larger fragment ID takes the smaller as parent. A mutual edge
	// accepted in only one direction is an ordinary parent edge for
	// the accepted direction — treating it as a tie to break would
	// leave the edge uncovered by the forest and break CV properness.
	var mine interface{}
	if owner {
		pi := parentInfo{}
		if sp.outAccepted {
			target := c.nbrFragID[ownerPort]
			bothAccepted := sp.mutualMOE && sp.inAccepted
			if !bothAccepted || target < c.st.FragID {
				pi = parentInfo{hasParent: true, fragID: target}
			}
		}
		mine = pi
	}
	rootGot := c.upcastFirst(bs(9), mine)
	var payload parentInfo
	if c.st.IsRoot() && rootGot != nil {
		payload = rootGot.(parentInfo)
	}
	parent := ldt.Broadcast(c.nd, c.st, bs(10), payload)

	// Hosts of G' edges, for the per-iteration color exchange.
	hostPorts := make([]int, 0, 4)
	for _, e := range nbrInfo {
		if e.hostID == c.nd.ID() {
			hostPorts = append(hostPorts, e.hostPort)
		}
	}

	// Cole–Vishkin iterations. Every member tracks its fragment's CV
	// color and all neighbors' colors in lockstep.
	cvColor := c.st.FragID
	base := int64(11)
	for it := 0; it < iters; it++ {
		ib := base + 3*int64(it)
		// TA: hosts exchange current colors with all G' neighbors.
		var got []cvColorMsg
		if len(hostPorts) > 0 {
			out := c.nd.Outbox()
			own := interface{}(cvColorMsg{fragID: c.st.FragID, color: cvColor})
			for _, p := range hostPorts {
				out[p] = own
			}
			in := ldt.TransmitAdjacent(c.nd, bs(ib), out)
			for _, p := range hostPorts {
				if raw := in[p]; raw != nil {
					got = append(got, raw.(cvColorMsg))
				}
			}
		}
		// Up + Broadcast: all members learn the neighbors' colors.
		agg := ldt.Up(c.nd, c.st, bs(ib+1), dedupeCV(got),
			func(acc cvColorList, _ int, v cvColorList) cvColorList {
				return dedupeCV(append(acc, v...))
			})
		var bc cvColorList
		if c.st.IsRoot() {
			bc = agg
		}
		nbrCV := ldt.Broadcast(c.nd, c.st, bs(ib+2), bc)

		// Local lockstep update.
		if parent.hasParent {
			pc, ok := findCV(nbrCV, parent.fragID)
			if !ok {
				panic("core: CV parent color missing")
			}
			cvColor = cvStep(cvColor, pc)
		} else {
			cvColor = cvRootStep(cvColor)
		}
	}

	// Mini-stages: the stage structure of Fast-Awake-Coloring, keyed by
	// CV color class in [0, 8) instead of by fragment ID in [1, N].
	return c.paletteStages(bs, base+3*int64(iters), nbrInfo, hostPorts, cvColor)
}

// dedupeCV removes duplicate fragment entries from a CV color list.
func dedupeCV(l cvColorList) cvColorList {
	sort.Slice(l, func(i, j int) bool { return l[i].fragID < l[j].fragID })
	out := l[:0]
	for i, m := range l {
		if i == 0 || m.fragID != out[len(out)-1].fragID {
			out = append(out, m)
		}
	}
	return out
}

func findCV(l cvColorList, fragID int64) (int64, bool) {
	for _, m := range l {
		if m.fragID == fragID {
			return m.color, true
		}
	}
	return 0, false
}

// paletteStages assigns the 5-color palette over 8 CV-class
// mini-stages. Stage c (4 blocks) lets every fragment of CV class c
// pick the highest-priority color unused by its neighbors, then
// propagates the choice into neighboring fragments, exactly like one
// Fast-Awake-Coloring stage.
func (c *nodeCtx) paletteStages(bs func(int64) int64, stageBase int64, nbrInfo nbrList,
	hostPorts []int, myCV int64) Color {
	// Rather than tracking neighbors' CV classes, every host listens in
	// every stage's TA block — 8 stages, so still O(1) awake rounds —
	// and colors are learned as they appear.
	nbrColors := make(map[int64]Color)
	myColor := ColorNone
	for class := int64(0); class < cvMaxColors; class++ {
		sb := func(b int64) int64 { return bs(stageBase + 4*class + b) }
		if myCV == class {
			// Member: pick color, broadcast, push to neighbors.
			var payload colorMsg
			if c.st.IsRoot() {
				used := make(map[Color]bool, len(nbrInfo))
				for _, e := range nbrInfo {
					if col, ok := nbrColors[e.fragID]; ok {
						used[col] = true
					}
				}
				pick := ColorNone
				for _, col := range palette {
					if !used[col] {
						pick = col
						break
					}
				}
				if pick == ColorNone {
					panic("core: palette exhausted in log* coloring")
				}
				payload = colorMsg{fragID: c.st.FragID, color: pick}
			}
			myColor = ldt.Broadcast(c.nd, c.st, sb(0), payload).color
			if len(hostPorts) > 0 {
				out := c.nd.Outbox()
				announce := interface{}(colorMsg{fragID: c.st.FragID, color: myColor})
				for _, p := range hostPorts {
					out[p] = announce
				}
				ldt.TransmitAdjacent(c.nd, sb(1), out)
			}
			continue
		}
		// Neighbor role: hosts listen; colors are upcast + broadcast.
		var got interface{}
		if len(hostPorts) > 0 {
			in := ldt.TransmitAdjacent(c.nd, sb(1), nil)
			var lm []colorMsg
			for _, p := range hostPorts {
				if raw := in[p]; raw != nil {
					lm = append(lm, raw.(colorMsg))
				}
			}
			if len(lm) > 0 {
				got = colorMsgList(lm)
			}
		}
		// The wave stays untyped: a subtree with nothing to report
		// sends an empty envelope, not an empty list.
		agg := ldt.Up(c.nd, c.st, sb(2), got,
			func(acc interface{}, _ int, v interface{}) interface{} {
				if acc == nil {
					return v
				}
				return append(append(colorMsgList(nil), acc.(colorMsgList)...), v.(colorMsgList)...)
			})
		var bc colorMsgList
		if c.st.IsRoot() && agg != nil {
			bc = agg.(colorMsgList)
		}
		res := ldt.Broadcast(c.nd, c.st, sb(3), bc)
		for _, m := range res {
			nbrColors[m.fragID] = m.color
		}
	}
	return myColor
}

// colorMsgList is a small list of palette color announcements.
type colorMsgList []colorMsg

func (l colorMsgList) Bits() int {
	b := 3
	for _, m := range l {
		b += m.Bits()
	}
	return b
}

func (colorMsgList) MsgKind() string { return "color-list" }

// logStarPhase is detPhase with the coloring swapped out.
func (c *nodeCtx) logStarPhase(phaseStart int64) (done bool) {
	bs := func(b int64) int64 { return phaseStart + b*c.blk }

	// --- Step (i): identical to Deterministic-MST ----------------------
	c.taFragment(bs(dbTAFrag))
	moe := c.upcastMOE(bs(dbUpMOE))
	var rootMsg *bcastMOEMsg
	if c.st.IsRoot() {
		rootMsg = &bcastMOEMsg{}
		if moe != nil {
			rootMsg.exists = true
			rootMsg.moe = *moe
		}
	}
	ph := c.broadcastMOE(bs(dbBcastMOE), rootMsg)
	c.stepDone(trace.StepFindMOE)
	if !ph.exists {
		return true
	}
	owner := c.isMOEOwner(&ph.moe)
	sp := c.sparsify(bs, ph, owner)
	nbrInfo := sp.nbrInfo

	// --- Step (ii): log* coloring + merging -----------------------------
	ownerPort := -1
	if owner {
		ownerPort = ph.moe.ownerPort
	}
	myColor := c.logStarColoring(bs, sp, owner, ownerPort)
	c.stepDone(trace.StepColoring)

	mergeBase := logStarBlocks(c.nd.MaxID()) - 7
	var cmdPayload mergeCmd
	if c.st.IsRoot() && myColor == Blue && len(nbrInfo) > 0 {
		e := nbrInfo[0]
		cmdPayload = mergeCmd{merging: true, hostID: e.hostID, hostPort: e.hostPort}
	}
	cmd := ldt.Broadcast(c.nd, c.st, bs(mergeBase), cmdPayload)
	c.stepDone(trace.StepDecide)
	dec := ldt.NoMerge
	if cmd.merging {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if cmd.hostID == c.nd.ID() {
			dec.AttachPort = cmd.hostPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(mergeBase+1), dec)

	dec = ldt.NoMerge
	if myColor == Blue && len(nbrInfo) == 0 {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if owner {
			dec.AttachPort = ph.moe.ownerPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(mergeBase+4), dec)
	c.stepDone(trace.StepMerge)
	return false
}

// RunLogStar executes the Corollary 1 algorithm: O(log n log* n) awake
// complexity and O(n log n log* n) rounds, independent of the ID
// space size.
func RunLogStar(g *graph.Graph, opts Options) (*Outcome, error) {
	if err := checkInput(g); err != nil {
		return nil, err
	}
	maxPhases := opts.MaxPhases
	if maxPhases <= 0 {
		maxPhases = DeterministicPhaseBound(g.N())
	}
	budget, err := opts.acceptBudget()
	if err != nil {
		return nil, err
	}
	states := ldt.SingletonStates(g)
	rec := newPhaseRecorder(opts.RecordPhases, g.N(), maxPhases)
	phasesRun := make([]int, g.N())

	res, err := sim.Run(opts.simConfig(g), func(nd *sim.Node) error {
		c := newNodeCtx(nd, states[nd.Index()])
		c.acceptBudget = budget
		phaseLen := logStarBlocks(nd.MaxID()) * c.blk
		for p := 0; p < maxPhases; p++ {
			c.beginPhase(p + 1)
			done := c.logStarPhase(1 + int64(p)*phaseLen)
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
