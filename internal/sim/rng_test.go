package sim

import (
	"math"
	"math/rand"
	"testing"

	"sleepmst/internal/graph"
)

// streamDraws passes both the closed form's handover at draw rngTap
// and one full lag cycle of the register after it.
const streamDraws = 1500

// rngSeeds covers the normalisation edge cases of rngSource.Seed (zero,
// negatives, multiples of 2³¹−1, the zero substitute) and the per-node
// seeds Node.Rand derives from several run seeds.
func rngSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, seedZero,
		seedMod, -seedMod, 1 << 31, 1 << 62, -(1 << 62),
		math.MaxInt64, math.MinInt64,
	}
	for _, seed := range []int64{0, 1, 2, 7, 42, -3, 1 << 40} {
		for idx := range int64(512) {
			seeds = append(seeds, seed*1_000_003+idx*7_919+1)
		}
	}
	return seeds
}

// draw takes one value from r by method i mod 6, cycling through every
// method the algorithms call; the bounds vary so the rejection loops in
// Intn and Int63n take different numbers of draws.
func draw(r *rand.Rand, i int) uint64 {
	switch i % 6 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return uint64(r.Uint32())
	case 2:
		return uint64(r.Intn(1 + i%1000))
	case 3:
		return uint64(r.Int63())
	case 4:
		return uint64(r.Int63n(int64(3) << (i % 61)))
	default:
		return r.Uint64()
	}
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range rngSeeds() {
		got := rand.New(newLazySource(seed))
		want := rand.New(rand.NewSource(seed))
		for i := range streamDraws {
			if g, w := draw(got, i), draw(want, i); g != w {
				t.Fatalf("seed %d, call %d: lazy %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// A mid-stream Seed must restart the stream exactly, both before the
// handover and after it, when the full generator is already in use.
func TestLazySourceReseed(t *testing.T) {
	got := rand.New(newLazySource(5))
	want := rand.New(rand.NewSource(5))
	i := 0
	for _, step := range []struct {
		draws int
		seed  int64
	}{{100, 9}, {400, -(1 << 62)}, {rngTap, seedMod}, {streamDraws, 0}} {
		for range step.draws {
			if g, w := draw(got, i), draw(want, i); g != w {
				t.Fatalf("call %d: lazy %#x, math/rand %#x", i, g, w)
			}
			i++
		}
		got.Seed(step.seed)
		want.Seed(step.seed)
	}
	for range streamDraws {
		if g, w := draw(got, i), draw(want, i); g != w {
			t.Fatalf("call %d after the last reseed: lazy %#x, math/rand %#x", i, g, w)
		}
		i++
	}
}

// Node.Rand must be the documented math/rand stream for the node's
// seed.
func TestNodeRandStream(t *testing.T) {
	g := graph.Cycle(16, graph.GenConfig{Seed: 1})
	const seed = 11
	_, err := Run(Config{Graph: g, Seed: seed}, func(nd *Node) error {
		want := rand.New(rand.NewSource(seed*1_000_003 + int64(nd.Index())*7_919 + 1))
		for i := range rngTap + 50 {
			if got, w := draw(nd.Rand(), i), draw(want, i); got != w {
				t.Errorf("node %d, call %d: %#x, want %#x", nd.Index(), i, got, w)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
