package core

import (
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
)

// TestLogStarColoringProperness runs exactly the step-(i) + coloring
// prefix of one sparse phase, once per coloring, and asserts that the
// palette coloring is proper on the supergraph G'. Regression: a
// mutual MOE accepted in only one direction used to be left uncovered
// by the log* CV forest, letting two adjacent fragments both turn Blue
// and merge into each other (seed 128000 reproduces that instance).
func TestLogStarColoringProperness(t *testing.T) {
	for _, tc := range []struct {
		name  string
		color coloring
	}{
		{"logstar", (*nodeCtx).logStarColoring},
		{"fast-awake", (*nodeCtx).fastAwakeColoring},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.RandomConnected(128, 384, graph.GenConfig{Seed: 128000})
			states := ldt.SingletonStates(g)
			colors := make([]Color, g.N())
			sps := make([]sparsified, g.N())

			_, err := sim.Run(sim.Config{Graph: g, Seed: 0}, func(nd *sim.Node) error {
				c := newNodeCtx(nd, states[nd.Index()])
				bs := func(b int64) int64 { return 1 + b*c.blk }
				ph := c.findMOE(1, false)
				if !ph.exists {
					return nil
				}
				sp := c.sparsify(bs, ph)
				sps[nd.Index()] = sp
				colors[nd.Index()] = tc.color(c, bs, sp)
				return nil
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// Check palette properness over G': for every entry (edge), the
			// two fragments' colors must differ.
			fragColor := map[int64]Color{}
			for v := range colors {
				fragColor[states[v].FragID] = colors[v]
			}
			bad := 0
			for v, sp := range sps {
				for _, e := range sp.nbrInfo {
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
				for v, sp := range sps {
					if states[v].FragID == 48 || states[v].FragID == 88 {
						t.Logf("frag %d: ownerPort=%d outAcc=%v mutual=%v inAcc=%v nbrInfo=%+v color=%v",
							states[v].FragID, sp.ownerPort, sp.outAccepted, sp.mutualMOE, sp.inAccepted,
							sp.nbrInfo, colors[v])
					}
				}
				t.Fatalf("%d improper G' edges", bad)
			}
		})
	}
}
