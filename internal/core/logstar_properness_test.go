package core

import (
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
)

// TestLogStarColoringProperness runs exactly the step-(i) + coloring
// prefix of one LogStar phase and asserts that the palette coloring is
// proper on the supergraph G'. Regression: a mutual MOE accepted in
// only one direction used to be left uncovered by the CV forest,
// letting two adjacent fragments both turn Blue and merge into each
// other (seed 128000 reproduces that instance).
func TestLogStarColoringProperness(t *testing.T) {
	g := graph.RandomConnected(128, 384, graph.GenConfig{Seed: 128000})
	states := ldt.SingletonStates(g)
	colors := make([]Color, g.N())
	nbrs := make([]nbrList, g.N())
	type orient struct {
		owner, outAcc, mutual bool
		target                int64
	}
	orients := make([]orient, g.N())

	_, err := sim.Run(sim.Config{Graph: g, Seed: 0}, func(nd *sim.Node) error {
		c := newNodeCtx(nd, states[nd.Index()])
		bs := func(b int64) int64 { return 1 + b*c.blk }
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
		if !ph.exists {
			return nil
		}
		owner := c.isMOEOwner(&ph.moe)
		sp := c.sparsify(bs, ph, owner)
		nbrInfo := sp.nbrInfo
		ownerPort := -1
		if owner {
			ownerPort = ph.moe.ownerPort
			orients[nd.Index()] = orient{owner: true, outAcc: sp.outAccepted, mutual: sp.mutualMOE,
				target: c.nbrFragID[ownerPort]}
		}
		col := c.logStarColoring(bs, sp, owner, ownerPort)
		colors[nd.Index()] = col
		nbrs[nd.Index()] = nbrInfo
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Check palette properness over G': for every entry (edge), the two
	// fragments' colors must differ.
	fragColor := map[int64]Color{}
	for v := range colors {
		fragColor[states[v].FragID] = colors[v]
	}
	bad := 0
	for v, list := range nbrs {
		for _, e := range list {
			mine := fragColor[states[v].FragID]
			theirs := fragColor[e.fragID]
			if mine == theirs && mine != ColorNone {
				bad++
				if bad < 10 {
					t.Errorf("fragments %d and %d adjacent in G' share color %v",
						states[v].FragID, e.fragID, mine)
				}
			}
		}
	}
	if bad > 0 {
		for v := range orients {
			if states[v].FragID == 48 || states[v].FragID == 88 {
				t.Logf("frag %d: orient=%+v nbrInfo=%+v color=%v",
					states[v].FragID, orients[v], nbrs[v], colors[v])
			}
		}
		t.Fatalf("%d improper G' edges", bad)
	}
}
