package core

import (
	"fmt"
	"sort"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// Color is the Fast-Awake-Coloring palette (§2.3). Blue has the
// highest priority; a fragment picks the highest-priority color not
// already taken by a supergraph neighbor, so every first-colored
// fragment of a component is Blue and all Blue fragments merge.
type Color int

// The palette in priority order (Blue > Red > Orange > Black > Green).
const (
	ColorNone Color = iota
	Blue
	Red
	Orange
	Black
	Green
)

// palette lists the colors in priority order.
var palette = [...]Color{Blue, Red, Orange, Black, Green}

func (c Color) String() string {
	switch c {
	case ColorNone:
		return "none"
	case Blue:
		return "blue"
	case Red:
		return "red"
	case Orange:
		return "orange"
	case Black:
		return "black"
	case Green:
		return "green"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// MaxValidIncomingMOEs is the paper's sparsification constant: each
// fragment accepts at most this many incoming MOEs, bounding the
// supergraph degree by MaxValidIncomingMOEs+1 = 4.
const MaxValidIncomingMOEs = 3

// Block layout of one Deterministic-MST phase. The coloring occupies
// 4 blocks per ID stage, N stages.
const (
	dbTAFrag      = 0 // Transmit-Adjacent: refresh (ID, fragID, level)
	dbUpMOE       = 1 // Upcast-Min: fragment MOE to root
	dbBcastMOE    = 2 // Fragment-Broadcast: MOE identity
	dbTAMOE       = 3 // Transmit-Adjacent: mark fragment MOE edges
	dbUpCount     = 4 // Up: subtree counts of incoming-MOE edges
	dbDownToken   = 5 // Down: distribute <= 3 selection tokens
	dbTAValid     = 6 // Transmit-Adjacent: accept/reject notices
	dbUpNbr       = 7 // Up: union of accepted supergraph edges
	dbBcastNbr    = 8 // Fragment-Broadcast: NBR-INFO
	dbColorBase   = 9 // 4N coloring blocks follow
	stageBlocks   = 4 // blocks per coloring stage
	postColor1    = 0 // broadcast of the pass-1 merge decision
	postColorM1   = 1 // Merging-Fragments pass 1 (3 blocks)
	postColorM2   = 4 // Merging-Fragments pass 2 (3 blocks)
	postColorSpan = 7
)

// detPhaseBlocks returns the total blocks per deterministic phase for
// ID space size maxID.
func detPhaseBlocks(maxID int64) int64 {
	return int64(dbColorBase) + stageBlocks*maxID + postColorSpan
}

// nbrEntry describes one supergraph (G') edge from this fragment's
// point of view: the neighboring fragment and the local node/port
// hosting the edge.
type nbrEntry struct {
	fragID   int64
	hostID   int64
	hostPort int
}

// nbrList is the NBR-INFO payload: at most 4 entries (the fragment's
// accepted incoming MOEs plus its accepted outgoing MOE), so the
// message stays within O(log n) bits.
type nbrList []nbrEntry

func (l nbrList) Bits() int {
	b := 3
	for _, e := range l {
		b += ldt.FieldBits(e.fragID) + ldt.FieldBits(e.hostID) + ldt.FieldBits(int64(e.hostPort))
	}
	return b
}

func (nbrList) MsgKind() string { return "nbr-info" }

// intPayload is a Sizer-friendly integer wire value.
type intPayload int64

func (p intPayload) Bits() int { return ldt.FieldBits(int64(p)) }

func (intPayload) MsgKind() string { return "int" }

// validMsg tells the sender of an incoming MOE whether it was selected.
type validMsg struct{ accepted bool }

func (validMsg) Bits() int { return 1 }

func (validMsg) MsgKind() string { return "valid" }

// colorMsg announces a fragment's chosen color.
type colorMsg struct {
	fragID int64
	color  Color
}

func (m colorMsg) Bits() int { return ldt.FieldBits(m.fragID) + 3 }

func (colorMsg) MsgKind() string { return "color" }

// mergeCmd is the pass-1 merge decision broadcast to the fragment.
type mergeCmd struct {
	merging  bool
	hostID   int64
	hostPort int
}

func (m mergeCmd) Bits() int { return 1 + ldt.FieldBits(m.hostID) + ldt.FieldBits(int64(m.hostPort)) }

func (mergeCmd) MsgKind() string { return "merge-cmd" }

// mergeEntries deduplicates and sorts supergraph entries.
func mergeEntries(lists ...[]nbrEntry) nbrList {
	seen := make(map[nbrEntry]bool)
	var out nbrList
	for _, l := range lists {
		for _, e := range l {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].fragID != out[j].fragID {
			return out[i].fragID < out[j].fragID
		}
		if out[i].hostID != out[j].hostID {
			return out[i].hostID < out[j].hostID
		}
		return out[i].hostPort < out[j].hostPort
	})
	return out
}

// detPhase runs one Deterministic-MST phase; done reports that the
// fragment spans the graph.
func (c *nodeCtx) detPhase(phaseStart int64) (done bool) {
	bs := func(b int64) int64 { return phaseStart + b*c.blk }
	maxID := c.nd.MaxID()

	// --- Step (i): find the fragment MOE -------------------------------
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
	nbrInfo := c.sparsify(bs, ph, owner).nbrInfo

	// --- Step (ii): Fast-Awake-Coloring over N ID stages ----------------
	myColor, _ := c.fastAwakeColoring(bs, nbrInfo)
	c.stepDone(trace.StepColoring)

	// Pass 1: Blue fragments with supergraph neighbors merge into an
	// arbitrary (non-Blue) neighbor.
	mergeBase := int64(dbColorBase) + stageBlocks*maxID
	var cmdPayload mergeCmd
	if c.st.IsRoot() && myColor == Blue && len(nbrInfo) > 0 {
		e := nbrInfo[0] // deterministic arbitrary choice
		cmdPayload = mergeCmd{merging: true, hostID: e.hostID, hostPort: e.hostPort}
	}
	cmd := ldt.Broadcast(c.nd, c.st, bs(mergeBase+postColor1), cmdPayload)
	c.stepDone(trace.StepDecide)
	dec := ldt.NoMerge
	if cmd.merging {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if cmd.hostID == c.nd.ID() {
			dec.AttachPort = cmd.hostPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(mergeBase+postColorM1), dec)

	// Pass 2: Blue singleton fragments (no supergraph neighbors) merge
	// along their original MOE. The decision is fragment-wide knowledge,
	// so no extra broadcast is needed.
	dec = ldt.NoMerge
	if myColor == Blue && len(nbrInfo) == 0 {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if owner {
			dec.AttachPort = ph.moe.ownerPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(mergeBase+postColorM2), dec)
	c.stepDone(trace.StepMerge)
	return false
}

// sparsified is what the sparsification blocks (dbTAMOE through
// dbBcastNbr) leave at a node: the fragment's NBR-INFO, plus the MOE
// owner's view of its own edge that the log* orientation needs.
type sparsified struct {
	nbrInfo nbrList
	// outAccepted: the target fragment accepted this owner's MOE;
	// mutualMOE: the MOE edge is also the target fragment's MOE;
	// inAccepted: this fragment accepted that reverse direction.
	outAccepted, mutualMOE, inAccepted bool
}

// sparsify runs blocks dbTAMOE..dbBcastNbr of a deterministic phase:
// mark the fragment MOE on its edge, accept at most acceptBudget
// incoming MOEs fragment-wide (count per subtree, then hand out tokens
// top-down), tell each incoming-MOE sender whether it was accepted,
// and gather the accepted supergraph edges (NBR-INFO) at the root and
// broadcast them. owner reports whether this node owns the MOE in ph.
func (c *nodeCtx) sparsify(bs func(int64) int64, ph bcastMOEMsg, owner bool) sparsified {
	var s sparsified
	c.nd.Metrics().Add("moe/probes", int64(c.nd.Degree()))
	out := c.nd.Outbox()
	mark := interface{}(taMOEMsg{fragID: c.st.FragID})
	for p := range out {
		out[p] = mark
	}
	if owner {
		out[ph.moe.ownerPort] = taMOEMsg{fragID: c.st.FragID, isMOE: true}
	}
	in := ldt.TransmitAdjacent(c.nd, bs(dbTAMOE), out)
	c.stepDone(trace.StepMarkMOE)
	var incoming []int  // ports carrying another fragment's MOE, ascending
	var incFrag []int64 // the sending fragment of each incoming port
	for p, raw := range in {
		if raw == nil {
			continue
		}
		msg := raw.(taMOEMsg)
		if msg.isMOE && msg.fragID != c.st.FragID {
			incoming = append(incoming, p)
			incFrag = append(incFrag, msg.fragID)
			if owner && p == ph.moe.ownerPort {
				s.mutualMOE = true
			}
		}
	}

	childCount := make([]int64, c.nd.Degree())
	total := ldt.Up(c.nd, c.st, bs(dbUpCount), intPayload(len(incoming)),
		func(sum intPayload, child int, v intPayload) intPayload {
			childCount[child] = int64(v)
			return sum + v
		})
	budget := min(int64(total), c.acceptBudget)
	accepted := 0 // incoming[:accepted] won a token
	ldt.Down(c.nd, c.st, bs(dbDownToken), intPayload(budget),
		func(received intPayload, send func(int, intPayload)) {
			b := int64(received)
			for accepted < len(incoming) && b != 0 {
				accepted++
				b--
			}
			for _, child := range c.st.Children {
				if b == 0 {
					break
				}
				if give := min(childCount[child], b); give > 0 {
					send(child, intPayload(give))
					b -= give
				}
			}
		})

	// Only MOE endpoints take part in the accept/reject exchange: the
	// hosts of incoming MOEs send a notice, the owner expects one.
	var myEntries []nbrEntry
	if len(incoming) > 0 || owner {
		out := c.nd.Outbox()
		for i, p := range incoming {
			out[p] = validMsg{accepted: i < accepted}
		}
		vin := ldt.TransmitAdjacent(c.nd, bs(dbTAValid), out)
		if owner {
			if raw := vin[ph.moe.ownerPort]; raw != nil && raw.(validMsg).accepted {
				s.outAccepted = true
				myEntries = append(myEntries, nbrEntry{
					fragID:   c.nbrFragID[ph.moe.ownerPort],
					hostID:   c.nd.ID(),
					hostPort: ph.moe.ownerPort,
				})
			}
		}
	}
	for i, p := range incoming[:accepted] {
		myEntries = append(myEntries, nbrEntry{fragID: incFrag[i], hostID: c.nd.ID(), hostPort: p})
		if owner && p == ph.moe.ownerPort {
			s.inAccepted = true
		}
	}
	c.stepDone(trace.StepValidate)

	agg := ldt.Up(c.nd, c.st, bs(dbUpNbr), mergeEntries(myEntries),
		func(acc nbrList, _ int, v nbrList) nbrList { return mergeEntries(acc, v) })
	var root nbrList
	if c.st.IsRoot() {
		root = agg
	}
	s.nbrInfo = ldt.Broadcast(c.nd, c.st, bs(dbBcastNbr), root)
	if c.st.IsRoot() {
		c.nd.EmitNbrs(c.phase, len(s.nbrInfo))
	}
	c.stepDone(trace.StepNbrInfo)
	return s
}

// fastAwakeColoring runs the N-stage coloring (§2.3): in stage i, the
// fragment whose ID is i picks the highest-priority color unused by its
// already-colored supergraph neighbors, and the choice is propagated to
// every node of every neighboring fragment. A node is awake only in
// the stages of its own fragment and of its <= 4 supergraph neighbors.
func (c *nodeCtx) fastAwakeColoring(bs func(int64) int64, nbrInfo nbrList) (Color, map[int64]Color) {
	nbrColors := make(map[int64]Color)
	myColor := ColorNone

	// The <= 5 stages this node participates in, ascending by ID.
	type stage struct {
		id     int64
		member bool
	}
	stageSet := map[int64]bool{}
	stages := []stage{{id: c.st.FragID, member: true}}
	stageSet[c.st.FragID] = true
	for _, e := range nbrInfo {
		if !stageSet[e.fragID] {
			stageSet[e.fragID] = true
			stages = append(stages, stage{id: e.fragID})
		}
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].id < stages[j].id })

	stageStart := func(id int64, block int64) int64 {
		return bs(int64(dbColorBase) + stageBlocks*(id-1) + block)
	}

	for _, s := range stages {
		if s.member {
			// Block 0: the root picks the color; Fragment-Broadcast.
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
					panic("core: palette exhausted — supergraph degree bound violated")
				}
				payload = colorMsg{fragID: c.st.FragID, color: pick}
			}
			myColor = ldt.Broadcast(c.nd, c.st, stageStart(s.id, 0), payload).color
			// Block 1: hosts push the color across supergraph edges.
			hostOut := c.nd.Outbox()
			announce := interface{}(colorMsg{fragID: c.st.FragID, color: myColor})
			host := false
			for _, e := range nbrInfo {
				if e.hostID == c.nd.ID() {
					hostOut[e.hostPort] = announce
					host = true
				}
			}
			if host {
				ldt.TransmitAdjacent(c.nd, stageStart(s.id, 1), hostOut)
			}
			// Blocks 2-3 belong to the neighboring fragments.
			continue
		}
		// Neighbor role: block 1 — hosts of edges to fragment s.id
		// listen for its color.
		var got interface{}
		var hostPorts []int
		for _, e := range nbrInfo {
			if e.fragID == s.id && e.hostID == c.nd.ID() {
				hostPorts = append(hostPorts, e.hostPort)
			}
		}
		if len(hostPorts) > 0 {
			in := ldt.TransmitAdjacent(c.nd, stageStart(s.id, 1), nil)
			for _, p := range hostPorts {
				if raw := in[p]; raw != nil {
					got = raw.(colorMsg)
				}
			}
		}
		// Block 2: upcast the color to this fragment's root
		// (Neighbor-Awareness); block 3: broadcast it down.
		res := c.upcastFirst(stageStart(s.id, 2), got)
		var payload colorMsg
		if c.st.IsRoot() {
			payload = colorMsg{fragID: s.id, color: ColorNone}
			if res != nil {
				payload = res.(colorMsg)
			}
		}
		cm := ldt.Broadcast(c.nd, c.st, stageStart(s.id, 3), payload)
		if cm.color != ColorNone {
			nbrColors[cm.fragID] = cm.color
		}
	}
	return myColor, nbrColors
}

// RunDeterministic executes Algorithm Deterministic-MST on g: O(log n)
// awake complexity and O(nN log n) rounds, where N is the largest node
// ID (which all nodes are assumed to know).
func RunDeterministic(g *graph.Graph, opts Options) (*Outcome, error) {
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
		phaseLen := detPhaseBlocks(nd.MaxID()) * c.blk
		for p := 0; p < maxPhases; p++ {
			c.beginPhase(p + 1)
			done := c.detPhase(1 + int64(p)*phaseLen)
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
