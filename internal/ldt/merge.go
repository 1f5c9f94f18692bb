package ldt

import (
	"fmt"

	"sleepmst/internal/sim"
)

// MergeBlocks is the number of transmission-schedule blocks consumed
// by one MergingFragments call (one Transmit-Adjacent plus the two
// wave instances of the paper's §2.2).
const MergeBlocks = 3

// MergeDecision tells a node how its fragment behaves in one
// MergingFragments wave. Every node of a merging ("tails") fragment
// sets Merging; exactly one node of the fragment — the attachment node
// u_T — also sets AttachPort to the port of the inter-fragment edge it
// merges along. Nodes of non-merging ("heads") fragments leave the
// zero value.
type MergeDecision struct {
	Merging    bool
	AttachPort int // -1 unless this node is u_T
}

// NoMerge is the decision of heads-fragment nodes.
var NoMerge = MergeDecision{Merging: false, AttachPort: -1}

// taMergeMsg is exchanged in the Transmit-Adjacent step: current
// fragment ID and level, plus an attach request on the merge edge.
type taMergeMsg struct {
	fragID int64
	level  int
	attach bool
}

func (m taMergeMsg) Bits() int { return FieldBits(m.fragID) + FieldBits(int64(m.level)) + 1 }

// waveMsg carries the NEW-FRAGMENT-ID / NEW-LEVEL-NUM pair of the
// paper's merge waves; empty encodes the paper's ⊥.
type waveMsg struct {
	fragID int64
	level  int
	empty  bool
}

func (m waveMsg) Bits() int { return FieldBits(m.fragID) + FieldBits(int64(m.level)) + 1 }

// MergingFragments implements the paper's Procedure
// Merging-Fragments: every merging fragment re-roots itself at its
// attachment node u_T and attaches below the node u_H on the other
// side of the merge edge, adopting u_H's fragment ID and level+1
// labeling; see Figures 2-5 of the paper. Non-merging fragments are
// unchanged except that nodes receiving an attachment gain a child.
//
// All nodes of the network must call it for the same start round; it
// consumes MergeBlocks blocks and costs at most 5 awake rounds for
// merging-fragment nodes and 1 for all others. st is updated in
// place.
func MergingFragments(nd *sim.Node, st *State, start int64, dec MergeDecision) {
	n := nd.N()
	blk := BlockLen(n)

	// Block A: Transmit-Adjacent. Everyone advertises (fragID, level);
	// the attachment node u_T raises the attach flag on its merge edge.
	// The advertisement is the same on every port but the merge edge,
	// and changes only when the fragment merges, so it is boxed once per
	// content.
	out := nd.Outbox()
	adv := st.advert.Of(taMergeMsg{fragID: st.FragID, level: st.Level})
	for p := range out {
		out[p] = adv
	}
	if dec.Merging && dec.AttachPort >= 0 {
		out[dec.AttachPort] = taMergeMsg{fragID: st.FragID, level: st.Level, attach: true}
	}
	in := TransmitAdjacent(nd, start, out)

	// Heads-side bookkeeping: adopt attaching neighbors as children.
	for p, raw := range in {
		if raw != nil && raw.(taMergeMsg).attach {
			st.AddChild(p)
		}
	}

	// NEW-FRAGMENT-ID / NEW-LEVEL-NUM (⊥ encoded as newLevel < 0) and
	// the deferred re-orientation.
	newLevel, newFrag := -1, int64(0)
	reorient := false
	var newParent int
	var newChildren []int

	if dec.Merging && dec.AttachPort >= 0 {
		raw := in[dec.AttachPort]
		if raw == nil {
			panic(fmt.Sprintf("ldt: node %d: no merge-partner info on port %d", nd.Index(), dec.AttachPort))
		}
		uh := raw.(taMergeMsg)
		newLevel, newFrag = uh.level+1, uh.fragID
		reorient = true
		newParent = dec.AttachPort
		newChildren = st.TreePorts() // old parent and children all become children
		// u_T initiates exactly one wave per merging fragment, so this
		// is the canonical place to count waves and track depth.
		nd.Metrics().Add("merge/waves", 1)
		nd.Metrics().Max("merge/depth/max", int64(st.Level))
	}

	if !dec.Merging {
		// Heads fragments sleep through the two wave blocks.
		return
	}

	// Block B (first Transmission-Schedule instance): the values
	// propagate up the old tree from u_T to the old root; every node on
	// that path flips its orientation toward u_T.
	sched := ScheduleFor(start+blk, st.Level, n)
	if len(st.Children) > 0 {
		nd.SleepUntil(sched.UpReceive)
		rcv := nd.Exchange(nil)
		for _, c := range st.Children {
			raw := rcv[c]
			if raw == nil {
				continue
			}
			msg := raw.(waveMsg)
			if msg.empty {
				continue
			}
			if newLevel >= 0 {
				// Only one attachment edge exists per fragment, so a
				// node can see at most one non-empty wave.
				panic(fmt.Sprintf("ldt: node %d: conflicting merge waves", nd.Index()))
			}
			newLevel, newFrag = msg.level+1, msg.fragID
			reorient = true
			newParent = c
			newChildren = newChildren[:0]
			for _, tp := range st.TreePorts() {
				if tp != c {
					newChildren = append(newChildren, tp)
				}
			}
		}
	}
	if !st.IsRoot() {
		nd.SleepUntil(sched.UpSend)
		out := nd.Outbox()
		out[st.ParentPort] = st.upWave.Of(waveMsg{fragID: newFrag, level: newLevel, empty: newLevel < 0})
		nd.Exchange(out)
	}

	// Block C (second instance): the values flow down the old tree to
	// every remaining node; orientation of off-path nodes is unchanged.
	sched = ScheduleFor(start+2*blk, st.Level, n)
	if !st.IsRoot() {
		nd.SleepUntil(sched.DownReceive)
		rcv := nd.Exchange(nil)
		if raw := rcv[st.ParentPort]; raw != nil {
			msg := raw.(waveMsg)
			if !msg.empty && newLevel < 0 {
				newLevel, newFrag = msg.level+1, msg.fragID
			}
		}
	}
	if len(st.Children) > 0 {
		downOut := nd.Outbox()
		wave := interface{}(waveMsg{fragID: newFrag, level: newLevel, empty: newLevel < 0})
		for _, c := range st.Children {
			downOut[c] = wave
		}
		nd.SleepUntil(sched.DownSend)
		nd.Exchange(downOut)
	}

	// Commit the temporary variables (the paper's end-of-step update).
	if newLevel < 0 {
		panic(fmt.Sprintf("ldt: node %d of merging fragment %d finished merge with empty level", nd.Index(), st.FragID))
	}
	if newFrag != st.FragID {
		nd.EmitMerge(st.FragID, newFrag)
	}
	st.Level = newLevel
	st.FragID = newFrag
	if reorient {
		st.ParentPort = newParent
		st.Children = st.Children[:0]
		for _, c := range newChildren {
			st.AddChild(c)
		}
	}
}
