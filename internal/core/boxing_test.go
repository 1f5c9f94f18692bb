package core

import (
	"reflect"
	"runtime"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
	"sleepmst/internal/transport"
)

// TestRandomizedAllocationsPerAwakeNodeRound gates the boxing of
// Randomized-MST's sends: a node boxes a message only when its content
// changed since the same site last sent (sim.Boxed), so a run on
// RandomConnected(1024, 3072) makes at most 0.45 allocations per awake
// node-round. Boxing every send of every phase anew made 0.74.
func TestRandomizedAllocationsPerAwakeNodeRound(t *testing.T) {
	g := graph.RandomConnected(1024, 3072, graph.GenConfig{Seed: 3})
	var allocs uint64
	var awake int64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := RunRandomized(g, Options{Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if a := after.Mallocs - before.Mallocs; try == 0 || a < allocs {
			allocs = a
		}
		awake = 0
		for _, a := range out.Result.AwakePerNode {
			awake += a
		}
	}
	per := float64(allocs) / float64(awake)
	t.Logf("%d allocations for %d awake node-rounds: %.3f each", allocs, awake, per)
	if per > 0.45 {
		t.Errorf("%.3f allocations per awake node-round, want at most 0.45", per)
	}
}

// minItemTypes is an identity adversary hook that records the payload
// type of every Upcast-Min item a run sends.
type minItemTypes map[reflect.Type]bool

func (minItemTypes) BeginRun(int)                              {}
func (minItemTypes) InterceptWake(_ int, intended int64) int64 { return intended }
func (minItemTypes) CrashRound(int) int64                      { return 0 }
func (m minItemTypes) InterceptMessage(ev *sim.MessageEvent) {
	c := transport.CodecOf(ev.Payload)
	if c == nil || c.Inner == nil {
		return
	}
	if it, ok := c.Inner(ev.Payload).(ldt.MinItem); ok {
		m[reflect.TypeOf(it.Payload)] = true
	}
}

// TestUpcastMinPayloadsAreComparable pins what Upcast-Min's envelope
// memo needs: it compares a node's own items with ==, which panics on
// an uncomparable payload. Every driver that runs Upcast-Min sends
// only moeInfo and intPayload items, and both are comparable.
func TestUpcastMinPayloadsAreComparable(t *testing.T) {
	g := graph.RandomConnected(24, 48, graph.GenConfig{Seed: 2})
	seen := minItemTypes{}
	opts := Options{Seed: 1, Interceptor: seen}
	for name, run := range map[string]func() error{
		"randomized":    func() error { _, err := RunRandomized(g, opts); return err },
		"deterministic": func() error { _, err := RunDeterministic(g, opts); return err },
		"logstar":       func() error { _, err := RunLogStar(g, opts); return err },
		"aggregate": func() error {
			_, err := AggregateMin(g, make([]int64, g.N()), opts)
			return err
		},
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want := []reflect.Type{reflect.TypeOf(moeInfo{}), reflect.TypeOf(intPayload(0))}
	for _, typ := range want {
		if !seen[typ] {
			t.Errorf("no Upcast-Min item carried %v", typ)
		}
		delete(seen, typ)
	}
	for typ := range seen {
		t.Errorf("an Upcast-Min item carried %v, which the envelope memo was not checked for", typ)
	}
	for _, typ := range want {
		if !typ.Comparable() {
			t.Errorf("%v is not comparable", typ)
		}
	}
}
