package service

import (
	"fmt"
	"math"

	"sleepmst/internal/graph"
)

// BuildGraph constructs the named topology, mirroring cmd/sleepsim's
// flags with a sparser random default (m = 2n): every undirected edge
// of a request run over a tcp backend costs two socket connections.
// Shared by the service's per-request execution and cmd/mstserve's
// one-shot mode.
func BuildGraph(kind string, n, m, rows int, radius float64, seed int64) (*graph.Graph, error) {
	cfg := graph.GenConfig{Seed: seed}
	switch kind {
	case "random":
		if m <= 0 {
			m = 2 * n
		}
		return graph.RandomConnected(n, m, cfg), nil
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("service: ring requires n >= 3, got %d", n)
		}
		return graph.Cycle(n, cfg), nil
	case "path":
		return graph.Path(n, cfg), nil
	case "grid":
		if rows > n {
			return nil, fmt.Errorf("service: rows=%d exceeds n=%d", rows, n)
		}
		if rows <= 0 {
			rows = intSqrt(n)
		}
		return graph.Grid(rows, (n+rows-1)/rows, cfg), nil
	case "complete":
		return graph.Complete(n, cfg), nil
	case "sensor":
		if radius <= 0 {
			radius = 0.2
		}
		return graph.RandomGeometric(n, radius, cfg), nil
	default:
		return nil, fmt.Errorf("service: unknown graph kind %q (want %s)", kind, GraphKindList)
	}
}

// edgeBound bounds the edges BuildGraph builds for a request, from the
// same parameters and defaults, without building anything: random
// graphs have min(m, n(n-1)/2) edges, complete graphs n(n-1)/2, sensor
// graphs the pairs inside the radius in expectation, πr² of all pairs,
// plus at most n-1 bridges, and rings, paths and grids at most 2 per
// node (a grid can round n up to fewer than 2n nodes). The sensor
// figure is an expectation, so the built graph is checked as well.
func edgeBound(kind string, n, m int, radius float64) float64 {
	pairs := float64(n) * float64(n-1) / 2
	switch kind {
	case "random":
		if m <= 0 {
			m = 2 * n
		}
		return math.Min(float64(m), pairs)
	case "complete":
		return pairs
	case "sensor":
		if radius <= 0 {
			radius = 0.2
		}
		return pairs*math.Min(1, math.Pi*radius*radius) + float64(n-1)
	default:
		return 4 * float64(n)
	}
}

// GraphKindList is the documented topology vocabulary, for flag help
// strings and validation errors.
const GraphKindList = "random|ring|path|grid|complete|sensor"

// validGraphKind reports whether kind names a buildable topology.
func validGraphKind(kind string) bool {
	switch kind {
	case "random", "ring", "path", "grid", "complete", "sensor":
		return true
	}
	return false
}

// intSqrt returns the smallest r with r*r >= n.
func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
