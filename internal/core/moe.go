package core

import (
	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/metrics"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// nodeCtx bundles the per-node execution state shared by the
// algorithms: the sim handle, the LDT state, and the latest knowledge
// about neighbors gathered through Transmit-Adjacent.
type nodeCtx struct {
	nd  *sim.Node
	st  *ldt.State
	n   int
	blk int64
	// acceptBudget is the deterministic algorithms' valid-incoming-MOE
	// cap (the paper's 3; configurable for ablations).
	acceptBudget int64

	// phase and stepAwake drive the observability attribution: phase is
	// the current 1-based phase, stepAwake the node's awake count when
	// the current step began (see beginPhase / stepDone).
	phase     int
	stepAwake int64

	nbrFragID []int64 // per port, as of the last fragment TA
	nbrLevel  []int
	nbrID     []int64 // neighbor node IDs (learned over the wire)
}

func newNodeCtx(nd *sim.Node, st *ldt.State) *nodeCtx {
	deg := nd.Degree()
	c := &nodeCtx{
		nd:           nd,
		st:           st,
		n:            nd.N(),
		blk:          ldt.BlockLen(nd.N()),
		acceptBudget: MaxValidIncomingMOEs,
		nbrFragID:    make([]int64, deg),
		nbrLevel:     make([]int, deg),
		nbrID:        make([]int64, deg),
	}
	for i := range c.nbrFragID {
		c.nbrFragID[i] = -1
		c.nbrID[i] = -1
	}
	return c
}

// beginPhase marks the start of 1-based phase p for trace/metrics
// attribution. Both sinks are nil-safe, so callers never branch.
func (c *nodeCtx) beginPhase(p int) {
	c.phase = p
	c.nd.EmitPhase(p, c.st.FragID)
	c.stepAwake = c.nd.AwakeCount()
}

// stepDone attributes the awake rounds spent since the previous
// stepDone (or beginPhase) to the given step: one trace event plus the
// awake/step/<step> and awake/phase/<NNN> counters. Steps a node slept
// through entirely are skipped to keep the event volume proportional
// to awake work.
func (c *nodeCtx) stepDone(step trace.Step) {
	aw := c.nd.AwakeCount()
	d := aw - c.stepAwake
	c.stepAwake = aw
	if d == 0 {
		return
	}
	c.nd.EmitStep(c.phase, step, d)
	if m := c.nd.Metrics(); m != nil {
		m.Add(metrics.StepName(step.String()), d)
		m.Add(metrics.PhaseName(c.phase), d)
	}
}

// taFragMsg announces (ID, fragment, level) to all neighbors.
type taFragMsg struct {
	id     int64
	fragID int64
	level  int
}

func (m taFragMsg) Bits() int {
	return ldt.FieldBits(m.id) + ldt.FieldBits(m.fragID) + ldt.FieldBits(int64(m.level))
}

func (taFragMsg) MsgKind() string { return "ta-frag" }

// taFragment runs one Transmit-Adjacent block in which every node
// refreshes its per-port neighbor knowledge.
func (c *nodeCtx) taFragment(start int64) {
	out := c.nd.Outbox()
	msg := interface{}(taFragMsg{id: c.nd.ID(), fragID: c.st.FragID, level: c.st.Level})
	for p := range out {
		out[p] = msg
	}
	for p, raw := range ldt.TransmitAdjacent(c.nd, start, out) {
		if raw != nil {
			msg := raw.(taFragMsg)
			c.nbrFragID[p] = msg.fragID
			c.nbrLevel[p] = msg.level
			c.nbrID[p] = msg.id
		}
	}
}

// edgeKey returns the globally consistent tie-broken key of the edge on
// port p, using node IDs (both endpoints compute the same key).
func (c *nodeCtx) edgeKey(p int) graph.WeightKey {
	a, b := c.nd.ID(), c.nbrID[p]
	if a > b {
		a, b = b, a
	}
	return graph.WeightKey{W: c.nd.PortWeight(p), A: a, B: b}
}

// moeInfo identifies a fragment's minimum outgoing edge: the owning
// node (by ID) and its port.
type moeInfo struct {
	key       graph.WeightKey
	ownerID   int64
	ownerPort int
}

func (m moeInfo) Bits() int {
	return ldt.FieldBits(m.key.W) + ldt.FieldBits(m.key.A) + ldt.FieldBits(m.key.B) +
		ldt.FieldBits(m.ownerID) + ldt.FieldBits(int64(m.ownerPort))
}

// localMOE returns this node's minimum outgoing edge candidate, or nil
// if all neighbors are in the same fragment.
func (c *nodeCtx) localMOE() *ldt.MinItem {
	best := -1
	var bestKey graph.WeightKey
	for p := 0; p < c.nd.Degree(); p++ {
		if c.nbrFragID[p] == c.st.FragID {
			continue
		}
		k := c.edgeKey(p)
		if best < 0 || k.Less(bestKey) {
			best, bestKey = p, k
		}
	}
	if best < 0 {
		return nil
	}
	return &ldt.MinItem{
		Key:     bestKey,
		Payload: moeInfo{key: bestKey, ownerID: c.nd.ID(), ownerPort: best},
	}
}

// upcastMOE runs the Upcast-Min block for MOE discovery; the root's
// return value identifies the fragment MOE (nil = fragment spans the
// graph).
func (c *nodeCtx) upcastMOE(start int64) *moeInfo {
	mine := c.localMOE()
	if mine != nil {
		c.nd.Metrics().Add("moe/candidates", 1)
	}
	res := ldt.UpcastMin(c.nd, c.st, start, mine)
	if res == nil {
		return nil
	}
	info := res.Payload.(moeInfo)
	return &info
}

// bcastMOEMsg is the Fragment-Broadcast payload carrying the fragment
// MOE identity plus the phase coin flip (randomized algorithm only;
// coin is unused deterministically).
type bcastMOEMsg struct {
	exists bool
	moe    moeInfo
	coin   bool // true = heads
}

func (m bcastMOEMsg) Bits() int { return 2 + m.moe.Bits() }

func (bcastMOEMsg) MsgKind() string { return "bcast-moe" }

// broadcastMOE distributes the root's MOE knowledge (and coin) to the
// whole fragment.
func (c *nodeCtx) broadcastMOE(start int64, rootMsg *bcastMOEMsg) bcastMOEMsg {
	var payload bcastMOEMsg
	if c.st.IsRoot() {
		payload = *rootMsg
	}
	return ldt.Broadcast(c.nd, c.st, start, payload)
}

// isMOEOwner reports whether this node owns the fragment MOE described
// by info.
func (c *nodeCtx) isMOEOwner(info *moeInfo) bool {
	return info != nil && info.ownerID == c.nd.ID()
}

// boolPayload is a Sizer-friendly boolean wire value.
type boolPayload bool

func (boolPayload) Bits() int { return 1 }

func (boolPayload) MsgKind() string { return "bool" }

// upcastFirst runs an Up block that propagates the first non-nil value
// toward the root (used for single-owner facts such as MOE validity).
func (c *nodeCtx) upcastFirst(start int64, mine interface{}) interface{} {
	return ldt.Up(c.nd, c.st, start, mine, func(first interface{}, _ int, v interface{}) interface{} {
		if first != nil {
			return first
		}
		return v
	})
}
