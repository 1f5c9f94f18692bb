package core

import (
	"errors"
	"fmt"
	"sort"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
)

// This file implements classic synchronous GHS in the traditional
// CONGEST model — the comparator the paper's introduction measures
// against. It is a genuinely independent implementation, not the
// sleeping algorithm re-charged:
//
//   - nodes are awake in EVERY round until they terminate, so awake
//     complexity equals round complexity (the traditional model);
//   - fragments carry no distance labels: minimum outgoing edges are
//     found by event-driven flood/echo waves over the fragment trees;
//   - merging follows the classic rule: every fragment connects over
//     its MOE, each merge tree is resolved at its unique core (the
//     mutual-MOE edge, unique because weights are distinct), and the
//     new fragment identity floods outward from the core — so chains
//     of fragments merge in one phase, unlike the star-restricted
//     merges of the sleeping algorithms.
//
// Phases are synchronized by conservative fixed windows of 2n+2
// rounds per wave, giving the classic O(n log n) round complexity
// (Borůvka halving: every fragment merges every phase).

// ghs message types.
type ghsFragMsg struct{ fragID int64 }

func (m ghsFragMsg) Bits() int { return ldt.FieldBits(m.fragID) }

type ghsInitiate struct{}

func (ghsInitiate) Bits() int { return 1 }

// ghsEcho carries a subtree's best outgoing-edge candidate.
type ghsEcho struct {
	has bool
	key graph.WeightKey
}

func (m ghsEcho) Bits() int {
	return 1 + ldt.FieldBits(m.key.W) + ldt.FieldBits(m.key.A) + ldt.FieldBits(m.key.B)
}

// ghsRootChange routes from the old root toward the MOE owner,
// flipping tree orientation along the way.
type ghsRootChange struct{}

func (ghsRootChange) Bits() int { return 1 }

// ghsHalt floods termination through the spanning fragment.
type ghsHalt struct{}

func (ghsHalt) Bits() int { return 1 }

// ghsConnect is sent over the fragment's MOE; carrying the sender
// fragment ID lets the mutual pair pick the core winner.
type ghsConnect struct{ fragID int64 }

func (m ghsConnect) Bits() int { return ldt.FieldBits(m.fragID) }

// ghsNewFrag floods the merged fragment's identity from the core.
type ghsNewFrag struct{ fragID int64 }

func (m ghsNewFrag) Bits() int { return ldt.FieldBits(m.fragID) }

// ghsNode is the per-node state of the classic algorithm.
type ghsNode struct {
	nd      *sim.Node
	fragID  int64
	parent  int          // port toward the current root, -1 at root
	branch  map[int]bool // ports that are tree (MST) edges
	nbrFrag []int64
	// deferred holds the sends staged for the next step. It is the
	// node's own buffer, not Node.Outbox's: staged sends outlive the
	// fragment-ID exchange that opens every phase.
	deferred sim.Outbox
	staged   bool
}

func (gn *ghsNode) stage(port int, msg interface{}) {
	gn.deferred[port] = msg
	gn.staged = true
}

// step exchanges the staged outbox and returns the inbox; the node is
// awake every round, as the traditional model prescribes.
func (gn *ghsNode) step() sim.Inbox {
	if !gn.staged {
		return gn.nd.Exchange(nil)
	}
	in := gn.nd.Exchange(gn.deferred)
	clear(gn.deferred)
	gn.staged = false
	return in
}

// treePorts returns the current branch ports, sorted.
func (gn *ghsNode) treePorts() []int {
	out := make([]int, 0, len(gn.branch))
	for p := range gn.branch {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// children returns the branch ports other than the parent.
func (gn *ghsNode) children() []int {
	var out []int
	for _, p := range gn.treePorts() {
		if p != gn.parent {
			out = append(out, p)
		}
	}
	return out
}

// ghsPhaseState holds intra-phase wave bookkeeping.
type ghsPhaseState struct {
	bestPort int             // local MOE candidate port (-1 = none)
	bestKey  graph.WeightKey // its key
	combined ghsEcho         // subtree best after wave A
	srcChild int             // child port providing combined (-1 = own)
	isOwner  bool
	halted   bool
	conRecv  map[int]int64 // connect received per port -> sender frag
}

// RunClassicGHS executes classic synchronous GHS in the traditional
// model. All nodes stay awake until termination, so the returned
// metrics have awake complexity equal to round complexity — the gap
// the sleeping model closes.
func RunClassicGHS(g *graph.Graph, opts Options) (*Outcome, error) {
	if err := checkInput(g); err != nil {
		return nil, err
	}
	n := g.N()
	window := 2*int64(n) + 2
	// One fragID-exchange round plus three contiguous wave windows;
	// the halting phase's drain round reuses the first would-be wave C
	// round, so nodes are awake in literally every round until halt.
	phaseLen := 1 + 3*window
	maxPhases := opts.MaxPhases
	if maxPhases <= 0 {
		maxPhases = 2*bitlen(int64(n)) + 4 // Borůvka halving, generous slack
	}

	type nodeOut struct {
		fragID int64
		branch []int
		phases int
	}
	outs := make([]nodeOut, n)

	res, err := sim.Run(opts.SimConfig(g), func(nd *sim.Node) error {
		gn := &ghsNode{
			nd:       nd,
			fragID:   nd.ID(),
			parent:   -1,
			branch:   make(map[int]bool),
			nbrFrag:  make([]int64, nd.Degree()),
			deferred: make(sim.Outbox, nd.Degree()),
		}
		for phase := 0; phase < maxPhases; phase++ {
			halted, err := gn.phase(1+int64(phase)*phaseLen, window)
			if err != nil {
				return err
			}
			if halted {
				outs[nd.Index()] = nodeOut{fragID: gn.fragID, branch: gn.treePorts(), phases: phase + 1}
				return nil
			}
		}
		return errors.New("classic ghs did not converge")
	})
	if err != nil {
		return nil, err
	}

	edgeSet := map[int]bool{}
	for v := 0; v < n; v++ {
		for _, p := range outs[v].branch {
			edgeSet[g.Ports(v)[p].EdgeIdx] = true
		}
	}
	var mst []graph.Edge
	for idx := range edgeSet {
		mst = append(mst, g.Edge(idx))
	}
	graph.SortEdgesByKey(mst)
	phases := 0
	for _, o := range outs {
		if o.phases > phases {
			phases = o.phases
		}
	}
	out := &Outcome{MSTEdges: mst, Result: res, Phases: phases}
	if n > 1 && !graph.IsSpanningTree(g, mst) {
		return out, errors.New("core: classic ghs output is not a spanning tree")
	}
	return out, nil
}

// phase runs one classic GHS phase starting at round start; halted
// reports that the fragment spans the graph and the node has stopped.
func (gn *ghsNode) phase(start, window int64) (bool, error) {
	st := &ghsPhaseState{bestPort: -1, srcChild: -1, conRecv: map[int]int64{}}

	// Round start: exchange fragment IDs with all neighbors and pick
	// the local MOE candidate.
	gn.nd.SleepUntil(start)
	deg := gn.nd.Degree()
	fout := gn.nd.Outbox()
	frag := interface{}(ghsFragMsg{fragID: gn.fragID})
	for p := range fout {
		fout[p] = frag
	}
	for p, raw := range gn.nd.Exchange(fout) {
		gn.nbrFrag[p] = -1
		if raw != nil {
			gn.nbrFrag[p] = raw.(ghsFragMsg).fragID
		}
	}
	for p := 0; p < deg; p++ {
		if gn.nbrFrag[p] == gn.fragID || gn.nbrFrag[p] < 0 {
			continue
		}
		a, b := int64(gn.nd.Index()), int64(gn.nd.Ports()[p].To)
		if a > b {
			a, b = b, a
		}
		k := graph.WeightKey{W: gn.nd.PortWeight(p), A: a, B: b}
		if st.bestPort < 0 || k.Less(st.bestKey) {
			st.bestPort, st.bestKey = p, k
		}
	}

	if err := gn.waveA(start+1, window, st); err != nil {
		return false, err
	}
	if err := gn.waveB(start+1+window, window, st); err != nil {
		return false, err
	}
	if st.halted {
		gn.step() // flush staged halt forwards
		return true, nil
	}
	if err := gn.waveC(start+1+2*window, window, st); err != nil {
		return false, err
	}
	return false, nil
}

// waveA floods initiate from the root and convergecasts the minimum
// outgoing-edge candidate back up via event-driven echoes.
func (gn *ghsNode) waveA(wave, window int64, st *ghsPhaseState) error {
	initiated := gn.parent == -1
	echoFrom := map[int]bool{}
	childBest := ghsEcho{}
	childPort := -1
	echoSent := false
	if initiated {
		for _, p := range gn.treePorts() {
			gn.stage(p, ghsInitiate{})
		}
	}
	for r := wave; r < wave+window; r++ {
		in := gn.step()
		for p, raw := range in {
			if raw == nil {
				continue
			}
			switch msg := raw.(type) {
			case ghsInitiate:
				if p == gn.parent && !initiated {
					initiated = true
					for _, c := range gn.children() {
						gn.stage(c, ghsInitiate{})
					}
				}
			case ghsEcho:
				echoFrom[p] = true
				if msg.has && (!childBest.has || msg.key.Less(childBest.key)) {
					childBest = msg
					childPort = p
				}
			default:
				return fmt.Errorf("ghs wave A: unexpected %T", raw)
			}
		}
		if initiated && !echoSent && allIn(echoFrom, gn.children()) {
			st.combined = ghsEcho{has: st.bestPort >= 0, key: st.bestKey}
			st.srcChild = -1
			if childBest.has && (!st.combined.has || childBest.key.Less(st.combined.key)) {
				st.combined = childBest
				st.srcChild = childPort
			}
			echoSent = true
			if gn.parent >= 0 {
				gn.stage(gn.parent, st.combined)
			}
		}
	}
	if !echoSent {
		return errors.New("ghs wave A did not complete within its window")
	}
	return nil
}

// waveB routes the root change toward the MOE owner (flipping
// orientation), sends connects over MOEs at the window's last round,
// and floods halt when the fragment spans the graph.
func (gn *ghsNode) waveB(wave, window int64, st *ghsPhaseState) error {
	connectRound := wave + window - 1
	if gn.parent == -1 { // fragment root decides
		switch {
		case !st.combined.has:
			st.halted = true
			for _, p := range gn.treePorts() {
				gn.stage(p, ghsHalt{})
			}
		case st.srcChild < 0:
			st.isOwner = true
		default:
			gn.stage(st.srcChild, ghsRootChange{})
			gn.parent = st.srcChild
		}
	}
	for r := wave; r < wave+window; r++ {
		if st.isOwner && !st.halted && r == connectRound {
			gn.stage(st.bestPort, ghsConnect{fragID: gn.fragID})
			gn.branch[st.bestPort] = true
		}
		in := gn.step()
		for p, raw := range in {
			if raw == nil {
				continue
			}
			switch msg := raw.(type) {
			case ghsRootChange:
				if st.srcChild < 0 {
					st.isOwner = true
					gn.parent = -1 // tentative; resolved by wave C
				} else {
					gn.stage(st.srcChild, ghsRootChange{})
					gn.parent = st.srcChild
				}
			case ghsHalt:
				st.halted = true
				for _, c := range gn.treePorts() {
					if c != p {
						gn.stage(c, ghsHalt{})
					}
				}
			case ghsConnect:
				st.conRecv[p] = msg.fragID
				gn.branch[p] = true
			default:
				return fmt.Errorf("ghs wave B: unexpected %T", raw)
			}
		}
	}
	return nil
}

// waveC resolves cores and floods the merged fragment identity. The
// core is the edge over which both endpoints sent connects; the
// endpoint whose old fragment ID is larger becomes the new root and
// keeps its ID for the merged fragment.
func (gn *ghsNode) waveC(wave, window int64, st *ghsPhaseState) error {
	isCoreWinner := false
	if st.isOwner {
		if otherFrag, ok := st.conRecv[st.bestPort]; ok {
			if gn.fragID > otherFrag {
				isCoreWinner = true
			}
		}
	}
	if isCoreWinner {
		gn.parent = -1
		for _, p := range gn.treePorts() {
			gn.stage(p, ghsNewFrag{fragID: gn.fragID})
		}
	} else if st.isOwner {
		gn.parent = st.bestPort // toward the core across the MOE
	}
	got := isCoreWinner
	for r := wave; r < wave+window; r++ {
		in := gn.step()
		for p, raw := range in {
			if raw == nil {
				continue
			}
			switch msg := raw.(type) {
			case ghsNewFrag:
				if got {
					continue
				}
				got = true
				gn.fragID = msg.fragID
				gn.parent = p
				for _, c := range gn.treePorts() {
					if c != p {
						gn.stage(c, ghsNewFrag{fragID: msg.fragID})
					}
				}
			default:
				return fmt.Errorf("ghs wave C: unexpected %T", raw)
			}
		}
	}
	if !got {
		return errors.New("ghs wave C: merged fragment identity never arrived")
	}
	return nil
}

func allIn(set map[int]bool, ports []int) bool {
	for _, p := range ports {
		if !set[p] {
			return false
		}
	}
	return true
}
