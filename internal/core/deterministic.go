package core

import (
	"cmp"
	"fmt"
	"slices"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
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

// Block layout of one Deterministic-MST phase. Blocks 0-2 are step (i),
// as in Randomized-MST (findMOE). The coloring occupies 4 blocks per ID
// stage, N stages; the merge passes fill the last postColorSpan blocks
// of every sparse phase layout (see sparsePhase).
const (
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

// intPayload is a Sizer-friendly integer wire value.
type intPayload int64

func (p intPayload) Bits() int { return ldt.FieldBits(int64(p)) }

// validMsg tells the sender of an incoming MOE whether it was selected.
type validMsg struct{ accepted bool }

func (validMsg) Bits() int { return 1 }

// colorMsg announces a fragment's chosen color.
type colorMsg struct {
	fragID int64
	color  Color
}

func (m colorMsg) Bits() int { return ldt.FieldBits(m.fragID) + 3 }

// mergeCmd is the pass-1 merge decision broadcast to the fragment.
type mergeCmd struct {
	merging  bool
	hostID   int64
	hostPort int
}

func (m mergeCmd) Bits() int { return 1 + ldt.FieldBits(m.hostID) + ldt.FieldBits(int64(m.hostPort)) }

// mergeEntries sorts and deduplicates supergraph entries. The sort key
// is the whole entry, so equal neighbours in the sorted list are
// duplicates.
func mergeEntries(lists ...[]nbrEntry) nbrList {
	var out nbrList
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.SortFunc(out, func(a, b nbrEntry) int {
		return cmp.Or(cmp.Compare(a.fragID, b.fragID), cmp.Compare(a.hostID, b.hostID), cmp.Compare(a.hostPort, b.hostPort))
	})
	return slices.Compact(out)
}

// coloring colors this node's fragment in the supergraph G' from the
// sparsification result sp and returns its palette color; bs maps a
// block of the phase to its first round. Deterministic-MST uses
// fastAwakeColoring, the Corollary 1 variant logStarColoring.
type coloring func(c *nodeCtx, bs func(int64) int64, sp sparsified) Color

// sparsePhase runs one phase of Deterministic-MST, or of its
// Corollary 1 variant, from its first round start: step (i), the
// sparsification to the supergraph G', the given coloring of G', and
// the two merge passes in the last postColorSpan of phaseBlocks
// blocks. done reports that the fragment spans the graph.
func (c *nodeCtx) sparsePhase(start, phaseBlocks int64, color coloring) (done bool) {
	bs := func(b int64) int64 { return start + b*c.blk }
	ph := c.findMOE(start, false)
	if !ph.exists {
		return true
	}
	sp := c.sparsify(bs, ph)
	myColor := color(c, bs, sp)
	c.stepDone(trace.StepColoring)

	// Pass 1: Blue fragments with supergraph neighbors merge into an
	// arbitrary (non-Blue) neighbor.
	mergeBase := phaseBlocks - postColorSpan
	var cmdPayload mergeCmd
	if c.st.IsRoot() && myColor == Blue && len(sp.nbrInfo) > 0 {
		e := sp.nbrInfo[0] // deterministic arbitrary choice
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
	if myColor == Blue && len(sp.nbrInfo) == 0 {
		dec = ldt.MergeDecision{Merging: true, AttachPort: sp.ownerPort}
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
	// ownerPort is the fragment MOE's port at its owner, -1 at every
	// other node; the flags below are meaningful only at the owner.
	ownerPort int
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
// broadcast them. ph is the fragment MOE found in step (i).
func (c *nodeCtx) sparsify(bs func(int64) int64, ph bcastMOEMsg) sparsified {
	owner := c.isMOEOwner(&ph.moe)
	s := sparsified{ownerPort: -1}
	if owner {
		s.ownerPort = ph.moe.ownerPort
	}
	in := c.markMOE(bs(dbTAMOE), false, s.ownerPort)
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
func (c *nodeCtx) fastAwakeColoring(bs func(int64) int64, sp sparsified) Color {
	nbrInfo := sp.nbrInfo
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
	slices.SortFunc(stages, func(a, b stage) int { return cmp.Compare(a.id, b.id) })

	stageStart := func(id int64, block int64) int64 {
		return bs(int64(dbColorBase) + stageBlocks*(id-1) + block)
	}

	for _, s := range stages {
		if s.member {
			// Block 0: the root picks the color; Fragment-Broadcast.
			var payload colorMsg
			if c.st.IsRoot() {
				payload = colorMsg{fragID: c.st.FragID, color: pickColor(nbrInfo, nbrColors)}
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
	return myColor
}

// pickColor returns the highest-priority palette color that no
// supergraph neighbor in nbrInfo is known (nbrColors) to hold. The
// palette has five colors and a fragment at most four G' neighbors, so
// it runs out only if the supergraph degree bound is broken.
func pickColor(nbrInfo nbrList, nbrColors map[int64]Color) Color {
	var used [len(palette) + 1]bool // indexed by Color
	for _, e := range nbrInfo {
		used[nbrColors[e.fragID]] = true
	}
	for _, col := range palette {
		if !used[col] {
			return col
		}
	}
	panic("core: palette exhausted — supergraph degree bound violated")
}

// RunDeterministic executes Algorithm Deterministic-MST on g: O(log n)
// awake complexity and O(nN log n) rounds, where N is the largest node
// ID (which all nodes are assumed to know).
func RunDeterministic(g *graph.Graph, opts Options) (*Outcome, error) {
	return runSparse(g, opts, detPhaseBlocks, (*nodeCtx).fastAwakeColoring)
}

// runSparse runs the sparse-phase algorithm whose coloring is color and
// whose phase spans phaseBlocks(N) blocks for the ID space size N.
func runSparse(g *graph.Graph, opts Options, phaseBlocks func(maxID int64) int64, color coloring) (*Outcome, error) {
	if err := checkInput(g); err != nil {
		return nil, err
	}
	budget, err := opts.acceptBudget()
	if err != nil {
		return nil, err
	}
	blocks := phaseBlocks(g.MaxID())
	out, err := runPhases(g, opts, DeterministicPhaseBound(g.N()), blocks, func(c *nodeCtx, start int64) bool {
		c.acceptBudget = budget
		return c.sparsePhase(start, blocks, color)
	}, nil)
	if err != nil {
		return nil, err
	}
	return finishOutcome(g, out)
}
