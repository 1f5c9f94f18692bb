// Package chaos is a deterministic, seed-driven fault-injection layer
// for the sleeping-model simulator, plus an outcome oracle that
// classifies every run.
//
// The paper's algorithms are proved correct under a clean synchronous
// sleeping model: messages to sleeping nodes are silently lost, but
// awake-round delivery is perfect and nodes never crash. Fragment
// leaders and members stay consistent only because their wake
// schedules are exactly synchronized. This package measures how
// brittle those assumptions are: a Policy is the simulator's adversary
// hook (sim.Interceptor) and perturbs a run at message delivery and
// wake scheduling with seeded fault processes —
// i.i.d. message drop, bounded delay, duplication, payload bit-flips,
// crash-stop, and adversarial oversleep — and the Oracle classifies
// what came out the other end.
//
// Every fault decision is derived by hashing the event coordinates
// (round, node, port) with the policy seed rather than by consuming
// sequential RNG state, so a Policy is stateless across runs: two
// sim.Run invocations with the same Config produce byte-identical
// results, and re-running a single interesting (fault, rate, seed)
// cell reproduces it exactly.
package chaos

import (
	"fmt"

	"sleepmst/internal/sim"
)

// CrashEvent schedules one crash-stop: Node is not awake in any round
// >= Round.
type CrashEvent struct {
	Node  int   `json:"node"`
	Round int64 `json:"round"`
}

// Options selects the fault processes of a Policy. The rate fields are
// per-event probabilities in [0, 1]; every fault kind with rate zero
// is disabled, so the zero Options value injects nothing.
type Options struct {
	// Seed drives every fault decision. Two policies with equal
	// Options behave identically.
	Seed int64

	// DropRate is the i.i.d. probability that a sent message is lost
	// even though the receiver is awake.
	DropRate float64

	// DelayRate is the probability that a message is delivered 1..
	// MaxDelay rounds late (it still reaches the receiver only if the
	// receiver is awake in the late round). MaxDelay defaults to 3.
	DelayRate float64
	MaxDelay  int64

	// DupRate is the probability that a message is replayed: 1..MaxDup
	// extra copies arrive in the rounds after the primary copy.
	// MaxDup defaults to 2.
	DupRate float64
	MaxDup  int

	// FlipRate is the probability that one low bit of one integer
	// field of the payload is flipped — corruption below the type
	// system, stressing the CONGEST encodings.
	FlipRate float64

	// OversleepRate is the probability that a node's next wake round
	// is pushed 1..MaxOversleep rounds later, making it miss whatever
	// wave it had synchronized with. MaxOversleep defaults to 16.
	OversleepRate float64
	MaxOversleep  int64

	// Crash, if non-empty, is an explicit crash-stop schedule.
	// Otherwise CrashFrac > 0 crash-stops round(CrashFrac·n) nodes
	// chosen by seed, each at a round uniform in [1, CrashWindow]
	// (default 4n).
	Crash       []CrashEvent
	CrashFrac   float64
	CrashWindow int64
}

// Policy implements sim.Interceptor for one Options value.
type Policy struct {
	opts Options

	// Per-run state, reset by BeginRun.
	n          int
	crash      map[int]int64
	firstFault int64 // earliest round a fault was injected (0 = none)
}

// New returns a Policy for opts with defaults resolved.
func New(opts Options) *Policy {
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 3
	}
	if opts.MaxDup <= 0 {
		opts.MaxDup = 2
	}
	if opts.MaxOversleep <= 0 {
		opts.MaxOversleep = 16
	}
	return &Policy{opts: opts}
}

// Active reports whether the policy can inject any fault at all.
func (p *Policy) Active() bool {
	o := p.opts
	return o.DropRate > 0 || o.DelayRate > 0 || o.DupRate > 0 || o.FlipRate > 0 ||
		o.OversleepRate > 0 || o.CrashFrac > 0 || len(o.Crash) > 0
}

// FirstFaultRound returns the earliest round in which this run's
// policy injected a message fault or wake perturbation (0 = none).
// Crash-stops are reported by the runtime in Result.CrashRound; see
// FirstDivergence for the combined figure.
func (p *Policy) FirstFaultRound() int64 { return p.firstFault }

// BeginRun resets per-run state and materializes the crash table.
func (p *Policy) BeginRun(n int) {
	p.n = n
	p.firstFault = 0
	p.crash = nil
	if len(p.opts.Crash) > 0 {
		p.crash = make(map[int]int64, len(p.opts.Crash))
		for _, c := range p.opts.Crash {
			if c.Node >= 0 && c.Node < n && c.Round > 0 {
				p.crash[c.Node] = c.Round
			}
		}
		return
	}
	if p.opts.CrashFrac <= 0 {
		return
	}
	k := int(p.opts.CrashFrac*float64(n) + 0.5)
	if k > n {
		k = n
	}
	if k == 0 {
		return
	}
	window := p.opts.CrashWindow
	if window <= 0 {
		window = 4 * int64(n)
	}
	// Seeded Fisher–Yates prefix: the first k slots of a permutation
	// of [0, n) pick the victims.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	p.crash = make(map[int]int64, k)
	for i := 0; i < k; i++ {
		j := i + int(p.hash(kindCrashSel, uint64(i))%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
		v := perm[i]
		p.crash[v] = 1 + int64(p.hash(kindCrashRound, uint64(v))%uint64(window))
	}
}

// InterceptMessage applies the message fault processes. Drop wins over
// everything; delay, duplication and bit-flip compose.
func (p *Policy) InterceptMessage(ev *sim.MessageEvent) {
	r, f, q := uint64(ev.Round), uint64(ev.From), uint64(ev.Port)
	if p.opts.DropRate > 0 && p.unit(kindDrop, r, f, q) < p.opts.DropRate {
		ev.Drop = true
		p.note(ev.Round)
		return
	}
	if p.opts.DelayRate > 0 && p.unit(kindDelay, r, f, q) < p.opts.DelayRate {
		ev.Delay = 1 + int64(p.hash(kindDelayAmt, r, f, q)%uint64(p.opts.MaxDelay))
		p.note(ev.Round)
	}
	if p.opts.DupRate > 0 && p.unit(kindDup, r, f, q) < p.opts.DupRate {
		ev.Duplicate = 1 + int(p.hash(kindDupAmt, r, f, q)%uint64(p.opts.MaxDup))
		p.note(ev.Round)
	}
	if p.opts.FlipRate > 0 && p.unit(kindFlip, r, f, q) < p.opts.FlipRate {
		if mutated, ok := flipBit(ev.Payload, p.hash(kindFlipPick, r, f, q)); ok {
			ev.Payload = mutated
			ev.Mutated = true
			p.note(ev.Round)
		}
	}
}

// InterceptWake perturbs a node's next wake round (oversleep).
func (p *Policy) InterceptWake(node int, intended int64) int64 {
	if p.opts.OversleepRate <= 0 {
		return intended
	}
	v, r := uint64(node), uint64(intended)
	if p.unit(kindWake, v, r) >= p.opts.OversleepRate {
		return intended
	}
	p.note(intended)
	return intended + 1 + int64(p.hash(kindWakeAmt, v, r)%uint64(p.opts.MaxOversleep))
}

// CrashRound returns node's scheduled crash-stop round (0 = never).
func (p *Policy) CrashRound(node int) int64 { return p.crash[node] }

func (p *Policy) note(round int64) {
	if p.firstFault == 0 || round < p.firstFault {
		p.firstFault = round
	}
}

// FirstDivergence returns the earliest round at which the run left the
// clean model: the first injected message/wake fault or the first
// applied crash-stop, whichever came first (0 = the run was clean).
func FirstDivergence(p *Policy, res *sim.Result) int64 {
	first := p.FirstFaultRound()
	if res != nil {
		for _, cr := range res.CrashRound {
			if cr > 0 && (first == 0 || cr < first) {
				first = cr
			}
		}
	}
	return first
}

// String summarizes the enabled fault processes.
func (p *Policy) String() string {
	o := p.opts
	s := fmt.Sprintf("chaos(seed=%d", o.Seed)
	if o.DropRate > 0 {
		s += fmt.Sprintf(" drop=%g", o.DropRate)
	}
	if o.DelayRate > 0 {
		s += fmt.Sprintf(" delay=%g/%d", o.DelayRate, o.MaxDelay)
	}
	if o.DupRate > 0 {
		s += fmt.Sprintf(" dup=%g/%d", o.DupRate, o.MaxDup)
	}
	if o.FlipRate > 0 {
		s += fmt.Sprintf(" flip=%g", o.FlipRate)
	}
	if o.OversleepRate > 0 {
		s += fmt.Sprintf(" oversleep=%g/%d", o.OversleepRate, o.MaxOversleep)
	}
	if len(o.Crash) > 0 {
		s += fmt.Sprintf(" crash=%d", len(o.Crash))
	} else if o.CrashFrac > 0 {
		s += fmt.Sprintf(" crashfrac=%g", o.CrashFrac)
	}
	return s + ")"
}

// Hash-based randomness ---------------------------------------------------

// Fault-kind domain separators for the decision hashes.
const (
	kindDrop = iota + 1
	kindDelay
	kindDelayAmt
	kindDup
	kindDupAmt
	kindFlip
	kindFlipPick
	kindWake
	kindWakeAmt
	kindCrashSel
	kindCrashRound
)

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes the policy seed, a fault kind, and event coordinates into
// one 64-bit decision value.
func (p *Policy) hash(kind uint64, coords ...uint64) uint64 {
	h := splitmix64(uint64(p.opts.Seed) ^ kind<<56)
	for _, c := range coords {
		h = splitmix64(h ^ c)
	}
	return h
}

// unit maps a decision hash to [0, 1).
func (p *Policy) unit(kind uint64, coords ...uint64) float64 {
	return float64(p.hash(kind, coords...)>>11) / float64(uint64(1)<<53)
}
