package core

import (
	"errors"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// TestRunCanceled pins the cancellation contract: a closed
// Options.Cancel channel aborts the run at the first busy-round
// barrier with sim.ErrCanceled, node programs unwind cleanly (no
// panic, no hang), and a never-closed channel is invisible — the run
// completes with the exact same outcome as an uncancellable one.
func TestRunCanceled(t *testing.T) {
	g := graph.RandomConnected(48, 96, graph.GenConfig{Seed: 7})
	closed := make(chan struct{})
	close(closed)
	_, err := RunRandomized(g, Options{Seed: 3, Cancel: closed})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("pre-closed cancel: got err %v, want ErrCanceled", err)
	}
	if !errors.Is(err, sim.ErrAborted) {
		t.Errorf("canceled run should classify as aborted, got %v", err)
	}

	open := make(chan struct{})
	withCancel, err := RunRandomized(g, Options{Seed: 3, Cancel: open})
	if err != nil {
		t.Fatalf("open cancel channel failed the run: %v", err)
	}
	plain, err := RunRandomized(g, Options{Seed: 3})
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	if got, want := graph.TotalWeight(withCancel.MSTEdges), graph.TotalWeight(plain.MSTEdges); got != want {
		t.Errorf("open cancel channel changed the tree: weight %d vs %d", got, want)
	}
	if withCancel.Result.Rounds != plain.Result.Rounds {
		t.Errorf("open cancel channel changed rounds: %d vs %d", withCancel.Result.Rounds, plain.Result.Rounds)
	}
}
