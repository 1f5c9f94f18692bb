package sim

import (
	"math/rand"
	"testing"

	"sleepmst/internal/graph"
)

// The scheduler-invariant property test: random sleep/exchange
// programs are thrown at the runtime and every run is checked against
// the model's ground rules — a message is only ever delivered to a
// node awake in the delivery round (and is exactly the message the
// port's neighbor staged that round), awake counts grow monotonically
// with strictly increasing awake rounds, and the round metrics are
// mutually consistent (Rounds >= MaxHaltRound, BusyRounds == number of
// distinct awake rounds).

type sendRec struct {
	round int64
	port  int
	val   int
}

type recvRec struct {
	round int64
	port  int
	val   int
}

type nodeLog struct {
	exchanges int64
	sends     []sendRec
	recvs     []recvRec
}

// randomProgram derives every decision from the node's private
// deterministic randomness: a few rounds of sleep, then an exchange on
// a random subset of ports, repeated.
func randomProgram(logs []*nodeLog, steps int) Program {
	return func(nd *Node) error {
		log := logs[nd.Index()]
		for k := 0; k < steps; k++ {
			if d := nd.Rand().Int63n(5); d > 0 {
				nd.SleepUntil(nd.Round() + d)
			}
			round := nd.Round()
			var out Outbox
			for p := 0; p < nd.Degree(); p++ {
				if nd.Rand().Intn(2) == 0 {
					continue
				}
				if out == nil {
					out = make(Outbox, nd.Degree())
				}
				val := nd.Index()*1_000_000 + int(round)*100 + p
				out[p] = val
				log.sends = append(log.sends, sendRec{round: round, port: p, val: val})
			}
			in := nd.Exchange(out)
			log.exchanges++
			for p, raw := range in {
				if raw == nil {
					continue
				}
				log.recvs = append(log.recvs, recvRec{round: round, port: p, val: raw.(int)})
			}
		}
		return nil
	}
}

func TestQuickSchedulerInvariants(t *testing.T) {
	meta := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + meta.Intn(19)
		m := n - 1 + meta.Intn(2*n)
		g := graph.RandomConnected(n, m, graph.GenConfig{Seed: int64(trial + 1)})
		steps := 3 + meta.Intn(10)
		logs := make([]*nodeLog, g.N())
		for i := range logs {
			logs[i] = &nodeLog{}
		}
		res, err := Run(Config{Graph: g, Seed: int64(trial), RecordAwakeRounds: true}, randomProgram(logs, steps))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkInvariants(t, trial, g, res, logs)
	}
}

func checkInvariants(t *testing.T, trial int, g *graph.Graph, res *Result, logs []*nodeLog) {
	t.Helper()
	// Rounds vs halt rounds: the largest awake round bounds every halt.
	if res.Rounds < res.MaxHaltRound() {
		t.Fatalf("trial %d: Rounds %d < MaxHaltRound %d", trial, res.Rounds, res.MaxHaltRound())
	}

	// Awake accounting: counts match the recorded rounds, which are
	// strictly increasing (monotone awake counters), and each node's
	// exchange count equals its awake count.
	awakeAt := make([]map[int64]bool, g.N())
	busy := map[int64]bool{}
	for v := 0; v < g.N(); v++ {
		rounds := res.AwakeRounds[v]
		if int64(len(rounds)) != res.AwakePerNode[v] {
			t.Fatalf("trial %d node %d: %d recorded awake rounds vs count %d", trial, v, len(rounds), res.AwakePerNode[v])
		}
		if logs[v].exchanges != res.AwakePerNode[v] {
			t.Fatalf("trial %d node %d: %d exchanges vs awake count %d", trial, v, logs[v].exchanges, res.AwakePerNode[v])
		}
		awakeAt[v] = make(map[int64]bool, len(rounds))
		for i, r := range rounds {
			if i > 0 && r <= rounds[i-1] {
				t.Fatalf("trial %d node %d: awake rounds not strictly increasing: %v", trial, v, rounds)
			}
			if r < 1 || r > res.Rounds {
				t.Fatalf("trial %d node %d: awake round %d outside [1, %d]", trial, v, r, res.Rounds)
			}
			awakeAt[v][r] = true
			busy[r] = true
		}
		if len(rounds) > 0 && res.HaltRound[v] != rounds[len(rounds)-1] {
			t.Fatalf("trial %d node %d: halt round %d != last awake round %d", trial, v, res.HaltRound[v], rounds[len(rounds)-1])
		}
	}
	if int64(len(busy)) != res.BusyRounds {
		t.Fatalf("trial %d: %d distinct awake rounds vs BusyRounds %d", trial, len(busy), res.BusyRounds)
	}

	// Delivery: replay every send against the awake sets. A message
	// reaches its receiver iff the receiver was awake in the send
	// round — never a sleeping node — and the inbox contents must be
	// exactly the staged payloads.
	type key struct {
		to    int
		round int64
		port  int
	}
	expected := map[key]int{}
	var sent, delivered int64
	for v := 0; v < g.N(); v++ {
		ports := g.Ports(v)
		for _, s := range logs[v].sends {
			sent++
			if !awakeAt[v][s.round] {
				t.Fatalf("trial %d node %d: staged a send in round %d while asleep", trial, v, s.round)
			}
			to := ports[s.port].To
			if awakeAt[to][s.round] {
				delivered++
				expected[key{to: to, round: s.round, port: ports[s.port].RevPort}] = s.val
			}
		}
	}
	if sent != res.MessagesSent {
		t.Fatalf("trial %d: replay counted %d sends, runtime %d", trial, sent, res.MessagesSent)
	}
	if delivered != res.MessagesDelivered {
		t.Fatalf("trial %d: replay expects %d deliveries, runtime %d", trial, delivered, res.MessagesDelivered)
	}
	if res.MessagesSent != res.MessagesDelivered+res.MessagesLost {
		t.Fatalf("trial %d: sent %d != delivered %d + lost %d", trial, res.MessagesSent, res.MessagesDelivered, res.MessagesLost)
	}
	var received int64
	for v := 0; v < g.N(); v++ {
		for _, r := range logs[v].recvs {
			received++
			if !awakeAt[v][r.round] {
				t.Fatalf("trial %d node %d: received a message in round %d while asleep", trial, v, r.round)
			}
			want, ok := expected[key{to: v, round: r.round, port: r.port}]
			if !ok {
				t.Fatalf("trial %d node %d: unexpected message %d on port %d round %d", trial, v, r.val, r.port, r.round)
			}
			if want != r.val {
				t.Fatalf("trial %d node %d: got %d on port %d round %d, want %d", trial, v, r.val, r.port, r.round, want)
			}
		}
	}
	if received != delivered {
		t.Fatalf("trial %d: programs observed %d messages, replay expects %d", trial, received, delivered)
	}
}
