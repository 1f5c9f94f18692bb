package sim

import (
	"math/rand"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/trace"
	"sleepmst/internal/trace/tracetest"
)

// chaosHooks is a stateless interceptor for the orderer oracle: every
// decision hashes its coordinates with the seed, so a run is
// repeatable and every fault path fires somewhere — drops, delays,
// duplicates, overslept wakes and crash-stops.
type chaosHooks struct{ seed uint64 }

func (h chaosHooks) hash(vals ...int64) uint64 {
	x := h.seed
	for _, v := range vals {
		x = (x ^ uint64(v)) * 0x9e3779b97f4a7c15
		x ^= x >> 29
	}
	return x
}

func (h chaosHooks) BeginRun(n int) {}

func (h chaosHooks) InterceptMessage(ev *MessageEvent) {
	x := h.hash(1, ev.Round, int64(ev.From), int64(ev.Port))
	switch x % 13 {
	case 0:
		ev.Drop = true
	case 1, 2:
		ev.Delay = int64(1 + x>>8%4)
	case 3:
		ev.Duplicate = 1 + int(x>>8%2)
	}
}

func (h chaosHooks) InterceptWake(node int, intended int64) int64 {
	if x := h.hash(2, int64(node), intended); x%9 == 0 {
		return intended + 1 + int64(x>>8%3)
	}
	return intended
}

func (h chaosHooks) CrashRound(node int) int64 {
	if x := h.hash(3, int64(node)); x%7 == 0 {
		return 3 + int64(x>>8%30)
	}
	return 0
}

// reorderingHooks adds hashed sender choices to chaosHooks.
type reorderingHooks struct{ chaosHooks }

func (h reorderingHooks) ChooseSender(round int64, remaining []int) int {
	return int(h.hash(4, round, int64(len(remaining))) % uint64(len(remaining)))
}

// emittingProgram is a random sleep/exchange program that also emits
// the node-side trace events at random points.
func emittingProgram(steps int) Program {
	return func(nd *Node) error {
		rng := nd.Rand()
		for k := 0; k < steps; k++ {
			if d := rng.Int63n(5); d > 0 {
				nd.SleepUntil(nd.Round() + d)
			}
			switch rng.Intn(4) {
			case 0:
				nd.EmitPhase(1+k, rng.Int63n(9))
			case 1:
				nd.EmitStep(1+k, trace.StepMerge, rng.Int63n(4))
			case 2:
				nd.EmitMerge(rng.Int63n(9), rng.Int63n(9))
			case 3:
				nd.EmitNbrs(1+k, rng.Intn(5))
			}
			out := nd.Outbox()
			for p := range out {
				if rng.Intn(2) == 0 {
					out[p] = k
				}
			}
			nd.Exchange(out)
		}
		return nil
	}
}

// TestOrdererMatchesRecorderOnRandomPrograms runs random programs —
// clean, under a faulting interceptor, and under one that also
// reorders senders — into an Orderer and a reference sink that sorts
// the whole run once: the released stream must equal the reference's
// events and the orderer's meta the reference's, so sim.Run keeps the
// Sink contract on every path.
func TestOrdererMatchesRecorderOnRandomPrograms(t *testing.T) {
	meta := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + meta.Intn(30)
		g := graph.RandomConnected(n, n-1+meta.Intn(2*n), graph.GenConfig{Seed: int64(trial + 1)})
		cfg := Config{Graph: g, Seed: int64(trial)}
		hooks := chaosHooks{seed: uint64(trial)}
		switch trial % 3 {
		case 1:
			cfg.Interceptor = hooks
		case 2:
			cfg.Interceptor = reorderingHooks{hooks}
		}
		var got []trace.Event
		ord := trace.NewOrderer(func(events []trace.Event) { got = append(got, events...) })
		var ref tracetest.Reference
		cfg.Trace = trace.Tee(&ref, ord)
		if _, err := Run(cfg, emittingProgram(3+meta.Intn(12))); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ref.Events()
		if len(got) != len(want) || ord.Meta() != ref.Meta() {
			t.Fatalf("trial %d: released %d events (meta %+v), reference holds %d (meta %+v)",
				trial, len(got), ord.Meta(), len(want), ref.Meta())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d is %s, reference has %s", trial, i, got[i], want[i])
			}
		}
	}
}
