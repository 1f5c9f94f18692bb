package sim

import (
	"fmt"
	"testing"

	"sleepmst/internal/graph"
)

// BenchmarkScheduler measures pure scheduler overhead per awake
// node-round — a null program (empty exchanges, no sleeping) on a
// cycle, so the algorithm contributes nothing and the number is the
// engine's park/wake/deliver cost — one continuation switch per
// node-round, flat in n (DESIGN.md §12).
func BenchmarkScheduler(b *testing.B) {
	const rounds = 50
	for _, n := range []int{256, 4096, 65536} {
		g := graph.Cycle(n, graph.GenConfig{Seed: 1})
		prog := func(nd *Node) error {
			for i := 0; i < rounds; i++ {
				nd.Exchange(nil)
			}
			return nil
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{Graph: g, Seed: 1}, prog); err != nil {
					b.Fatal(err)
				}
			}
			perRound := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n*rounds)
			b.ReportMetric(perRound, "ns/node-round")
		})
	}
}
