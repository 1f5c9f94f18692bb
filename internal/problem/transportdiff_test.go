package problem_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sleepmst/internal/chaos"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// The transport differential harness: the wire layer's correctness
// proof. For every cell the same (graph, seed, problem) tuple runs
// twice — without a transport and over real TCP sockets — and the full
// observable surface must agree byte-for-byte: the in-memory run pins
// the model semantics, and the TCP run proves the codec round-trips
// every message type faithfully and the socket backend adds nothing
// but wire.

// diffChaos is the chaos policy of the chaos cells: every fault
// process at once, coordinate-hashed (stateless), so both runs of a
// cell see identical perturbations regardless of event arrival order.
func diffChaos(seed int64) sim.Interceptor {
	return chaos.New(chaos.Options{
		Seed:          seed,
		DropRate:      0.02,
		DelayRate:     0.03,
		DupRate:       0.02,
		OversleepRate: 0.02,
		CrashFrac:     0.1,
	})
}

// cellRun is everything one run of a cell produced.
type cellRun struct {
	trace   []byte
	verdict []byte
	metrics string
	sim     *sim.Result
	result  *problem.Result
	err     error
}

// firstLineDiff locates the first differing JSONL line for a readable
// failure message.
func firstLineDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// runCellOpts executes one cell with the full observability surface
// enabled, after applying mut to the base options.
func runCellOpts(t *testing.T, p problem.Problem, g *graph.Graph, mut func(*core.Options)) cellRun {
	t.Helper()
	reg := metrics.New()
	opts := core.Options{
		Seed:              1,
		RecordAwakeRounds: true,
		Metrics:           reg,
	}
	mut(&opts)
	jsonl := trace.NewJSONL(math.MaxInt64, math.MaxInt)
	c, err := problem.Certify(p, g, opts, jsonl)

	var vj bytes.Buffer
	if werr := c.Verdict.WriteJSON(&vj); werr != nil {
		t.Fatalf("%s: write verdict: %v", p.Name(), werr)
	}
	out := cellRun{
		trace:   jsonl.Bytes(),
		verdict: vj.Bytes(),
		metrics: reg.String(),
		result:  c.Result,
		err:     err,
	}
	if c.Result != nil {
		out.sim = c.Result.Sim
	}
	return out
}

// runTxCell executes one cell with the full observability surface,
// carrying deliveries over tx (nil = the plain in-memory path).
func runTxCell(t *testing.T, p problem.Problem, g *graph.Graph, tx transport.Transport, withChaos bool) cellRun {
	t.Helper()
	if tx != nil {
		defer tx.Close()
	}
	return runCellOpts(t, p, g, func(opts *core.Options) {
		opts.Transport = tx
		if withChaos {
			opts.Interceptor = diffChaos(7)
		}
	})
}

// diffTxCompare asserts two runs of one cell agree on every
// deterministic surface.
func diffTxCompare(t *testing.T, labelA, labelB string, a, b cellRun) {
	t.Helper()
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("%s vs %s: trace JSONL diverges:\n%s", labelA, labelB, firstLineDiff(a.trace, b.trace))
	}
	if !bytes.Equal(a.verdict, b.verdict) {
		t.Errorf("%s vs %s: conform verdict diverges:\n%s", labelA, labelB, firstLineDiff(a.verdict, b.verdict))
	}
	if a.metrics != b.metrics {
		t.Errorf("%s vs %s: metrics diverge:\n%s:\n%s\n%s:\n%s", labelA, labelB, labelA, a.metrics, labelB, b.metrics)
	}
	if (a.err == nil) != (b.err == nil) {
		t.Errorf("%s vs %s: error presence diverges: %v vs %v", labelA, labelB, a.err, b.err)
	}
	if a.sim != nil && b.sim != nil && !reflect.DeepEqual(a.sim, b.sim) {
		t.Errorf("%s vs %s: sim.Result diverges:\n%s: %+v\n%s: %+v", labelA, labelB, labelA, a.sim, labelB, b.sim)
	}
}

// TestTransportDifferential sweeps the headline problems across sizes,
// clean and under chaos (chaos exercises delayed-copy frames, whose
// FIFO replay order must survive the wire).
func TestTransportDifferential(t *testing.T) {
	for _, name := range []string{"mst/randomized", "mis"} {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{4, 16, 64} {
			for _, withChaos := range []bool{false, true} {
				mode := "clean"
				if withChaos {
					mode = "chaos"
				}
				t.Run(fmt.Sprintf("%s/n=%d/%s", name, n, mode), func(t *testing.T) {
					if testing.Short() && n > 16 {
						t.Skip("large cell skipped in -short")
					}
					// Sparse graphs: each undirected edge costs two TCP
					// connections, so the cell stays far inside the fd
					// budget.
					g := graph.RandomConnected(n, 2*n, graph.GenConfig{Seed: int64(n)})
					plain := runTxCell(t, p, g, nil, withChaos)
					tcp := runTxCell(t, p, g, transport.NewTCP(transport.TCPConfig{}), withChaos)
					diffTxCompare(t, "plain", "tcp", plain, tcp)
				})
			}
		}
	}
}

// TestTransportAllProblems runs every registered problem over TCP at a
// small size — the codec-coverage sweep: any message
// type a problem ships that lacks a codec, or round-trips inexactly,
// fails its cell here.
func TestTransportAllProblems(t *testing.T) {
	for _, name := range problem.Names() {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			g := graph.RandomConnected(8, 16, graph.GenConfig{Seed: 8})
			plain := runTxCell(t, p, g, nil, false)
			tcp := runTxCell(t, p, g, transport.NewTCP(transport.TCPConfig{}), false)
			if plain.err != nil {
				t.Fatalf("plain run failed: %v", plain.err)
			}
			diffTxCompare(t, "plain", "tcp", plain, tcp)
		})
	}
}

// linkWrap is a test wire: the TCP backend with every link it dials
// wrapped by wrap.
type linkWrap struct {
	transport.Transport
	wrap func(transport.Link) transport.Link
}

func (w linkWrap) Dial(from, to int) (transport.Link, error) {
	l, err := w.Transport.Dial(from, to)
	if err != nil {
		return nil, err
	}
	return w.wrap(l), nil
}

// dupLink acts like the worst legal at-least-once wire: every frame is
// shipped twice, and the first send of each new round re-ships the
// link's previous frame — a retransmission surfacing after its round
// already drained. The simulator's drain must filter both duplicate
// kinds (same-round by frame coordinates, stale by round).
type dupLink struct {
	inner transport.Link
	last  transport.Frame
	has   bool
}

func (l *dupLink) Send(f transport.Frame) error {
	if l.has && l.last.Round < f.Round {
		// Stale duplicate: the original was drained last round.
		if err := l.inner.Send(l.last); err != nil {
			return err
		}
	}
	// Keep a copy: the sender reuses f.Payload once Send returns.
	payload := append(l.last.Payload[:0], f.Payload...)
	l.last, l.has = f, true
	l.last.Payload = payload
	if err := l.inner.Send(f); err != nil {
		return err
	}
	// Same-round duplicate of every frame.
	return l.inner.Send(f)
}

// delayLink sleeps before sending about one frame in sixteen, for up
// to a millisecond hashed from the frame's coordinates, as a slow
// network would: a round's frames leave late and reach their
// receivers in a different interleaving.
type delayLink struct{ inner transport.Link }

func (l delayLink) Send(f transport.Frame) error {
	h := (uint64(f.Round)<<32 ^ uint64(f.From)<<16 ^ uint64(f.Port)) * 0x9e3779b97f4a7c15
	if h>>60 == 0 {
		time.Sleep(time.Duration(h>>50&1023) * time.Microsecond)
	}
	return l.inner.Send(f)
}

// TestTransportDuplicateDelivery pins the receiver-side drain against
// misbehaving but legal wires: each must stay byte-identical to the
// plain in-memory run. The dup wire checks the dedup — TCP
// redial-and-resend can deliver a frame twice (a send error does not
// prove loss), and a duplicate must neither displace a real frame nor
// abort a later round as a stray. The delay wire checks the canonical
// deposit order under late, reordered arrivals. The delays mode adds
// a delay/dup interceptor to produce Seq > 0 delayed-copy frames, so
// their dedup key and order are exercised too; like the chaos cells
// of the main sweep, that mode only demands byte-identical behavior
// (chaos may legitimately break the algorithm, but it must break both
// runs identically — before the dedup fix the dup wire aborted with
// "drained stray frame" errors the plain run never produced).
func TestTransportDuplicateDelivery(t *testing.T) {
	wires := []struct {
		name string
		wrap func(transport.Link) transport.Link
	}{
		{"dup-wire", func(l transport.Link) transport.Link { return &dupLink{inner: l} }},
		{"delay-wire", func(l transport.Link) transport.Link { return delayLink{inner: l} }},
	}
	for _, name := range []string{"mst/randomized", "mis"} {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, withDelays := range []bool{false, true} {
			mode := "clean"
			if withDelays {
				mode = "delays"
			}
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				g := graph.RandomConnected(16, 32, graph.GenConfig{Seed: 16})
				run := func(tx transport.Transport) cellRun {
					if tx != nil {
						defer tx.Close()
					}
					return runCellOpts(t, p, g, func(opts *core.Options) {
						opts.Transport = tx
						if withDelays {
							opts.Interceptor = chaos.New(chaos.Options{Seed: 7, DelayRate: 0.15, DupRate: 0.05})
						}
					})
				}
				plain := run(nil)
				if !withDelays && plain.err != nil {
					t.Fatalf("plain run failed: %v", plain.err)
				}
				for _, w := range wires {
					diffTxCompare(t, "plain", w.name, plain, run(linkWrap{transport.NewTCP(transport.TCPConfig{}), w.wrap}))
				}
			})
		}
	}
}

// lossyLink swallows the frame shipped when *left reaches zero and
// reports success, as a lossy network would.
type lossyLink struct {
	inner transport.Link
	left  *int
}

func (l lossyLink) Send(f transport.Frame) error {
	if *l.left--; *l.left == 0 {
		return nil
	}
	return l.inner.Send(f)
}

// TestTransportLostFrameAborts drives a frame the wire swallows through
// sim.Run: the receiver's round barrier waits out its receive deadline
// and the run aborts with the timeout instead of computing on a
// missing message, leaving no goroutine behind.
func TestTransportLostFrameAborts(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(16, 32, graph.GenConfig{Seed: 16})
	before := runtime.NumGoroutine()
	left := 100 // the 100th frame shipped is swallowed
	tx := linkWrap{transport.NewTCP(transport.TCPConfig{RecvTimeout: 100 * time.Millisecond}), func(l transport.Link) transport.Link {
		return lossyLink{inner: l, left: &left}
	}}
	_, err = p.Run(g, core.Options{Seed: 1, Transport: tx})
	tx.Close()
	if !errors.Is(err, sim.ErrAborted) || !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("run over a lossy wire returned %v, want an abort wrapping %v", err, transport.ErrTimeout)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before the run, %d after", before, runtime.NumGoroutine())
		}
	}
}

// TestTCPAllocationsPerFrame gates what the wire costs per frame: the
// n = 256 Randomized-MST cell of the benchmark's TCP workload runs in
// memory and over NewTCP, and the TCP run may allocate at most 2.5
// objects and 160 bytes per frame beyond the in-memory run; it takes
// 1.5 objects and 76 bytes, mostly the decoded message each frame
// boxes. A wire that regrew its queue every round, held two 4 KiB
// buffers per connection and allocated a body, a Writer and a Reader
// per frame came to 5.7 objects and 362 bytes. The minimum of three
// tries discounts allocation by anything else running.
func TestTCPAllocationsPerFrame(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(256, 512, graph.GenConfig{Seed: 1})
	// run returns the fewest objects and bytes a run allocated over
	// three tries, and the frames it shipped.
	run := func(tcp bool) (objects, bytes uint64, frames int64) {
		for try := 0; try < 3; try++ {
			opts := core.Options{Seed: 1}
			var tx *transport.TCP
			if tcp {
				tx = transport.NewTCP(transport.TCPConfig{})
				opts.Transport = tx
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := p.Run(g, opts)
			runtime.ReadMemStats(&after)
			if tx != nil {
				frames = tx.TransportStats().FramesSent
				tx.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if o := after.Mallocs - before.Mallocs; try == 0 || o < objects {
				objects = o
			}
			if b := after.TotalAlloc - before.TotalAlloc; try == 0 || b < bytes {
				bytes = b
			}
		}
		return objects, bytes, frames
	}
	memObjects, memBytes, _ := run(false)
	tcpObjects, tcpBytes, frames := run(true)
	if frames == 0 {
		t.Fatal("the TCP run shipped no frames")
	}
	perObject := (float64(tcpObjects) - float64(memObjects)) / float64(frames)
	perByte := (float64(tcpBytes) - float64(memBytes)) / float64(frames)
	t.Logf("%d frames; in memory %d objects, %d bytes; over TCP %d objects, %d bytes: %.2f objects and %.0f bytes per frame beyond",
		frames, memObjects, memBytes, tcpObjects, tcpBytes, perObject, perByte)
	if perObject > 2.5 || perByte > 160 {
		t.Errorf("%.2f objects and %.0f bytes per frame beyond the in-memory run; want at most 2.5 and 160", perObject, perByte)
	}
}
