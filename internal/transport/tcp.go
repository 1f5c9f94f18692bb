package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig parameterizes the TCP backend. The zero value is usable.
type TCPConfig struct {
	// RecvTimeout bounds one Recv call — the round-barrier deadline
	// (default DefaultRecvTimeout).
	RecvTimeout time.Duration
}

// The TCP backend's constants.
const (
	// Retries is the per-frame send budget beyond the first attempt: a
	// broken connection is redialed with backoff up to this many times
	// before Send gives up.
	Retries = 8
	// Backoff is the base retry delay, doubled per attempt up to
	// MaxBackoff.
	Backoff = 500 * time.Microsecond
	// MaxBackoff caps the exponential retry delay.
	MaxBackoff = 100 * time.Millisecond
	// DialTimeout bounds one connection attempt.
	DialTimeout = 2 * time.Second
	// DefaultRecvTimeout bounds one Recv call when
	// TCPConfig.RecvTimeout is 0.
	DefaultRecvTimeout = 30 * time.Second
)

// TCP runs every node as a long-lived TCP server on a loopback
// ephemeral port: Listen brings the mesh up, Dial establishes one
// connection per directed neighbor pair on first use, frames travel
// as length-prefixed binary records, and Send survives broken
// connections by redialing with exponential backoff within its retry
// budget. Close shuts the mesh down gracefully: listeners stop,
// connections close, blocked Recv calls return ErrClosed.
type TCP struct {
	cfg TCPConfig

	// closed lives outside mu so the dial/retry paths (which sleep
	// between attempts) can poll it without touching the lock — Dial
	// once deadlocked by holding mu across a connect() that re-locked
	// it via isClosed.
	closed atomic.Bool

	mu        sync.Mutex
	n         int
	listeners []net.Listener
	addrs     []string
	queues    []*frameQueue
	links     map[uint64]*tcpLink
	wg        sync.WaitGroup

	framesSent atomic.Int64
	framesRecv atomic.Int64
	wireBytes  atomic.Int64
	dials      atomic.Int64
	redials    atomic.Int64
	retries    atomic.Int64
}

// NewTCP returns a TCP backend; call Listen before use.
func NewTCP(cfg TCPConfig) *TCP {
	if cfg.RecvTimeout <= 0 {
		cfg.RecvTimeout = DefaultRecvTimeout
	}
	return &TCP{cfg: cfg, links: map[uint64]*tcpLink{}}
}

// Listen starts one TCP server per node on an ephemeral loopback port
// and the accept/reader goroutines feeding the per-node frame queues.
func (t *TCP) Listen(n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listeners != nil {
		return fmt.Errorf("transport: tcp backend already listening on %d nodes", t.n)
	}
	if n <= 0 {
		return fmt.Errorf("transport: tcp backend needs n > 0, got %d", n)
	}
	t.n = n
	t.listeners = make([]net.Listener, n)
	t.addrs = make([]string, n)
	t.queues = make([]*frameQueue, n)
	for i := 0; i < n; i++ {
		ls, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.teardownLocked()
			return fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		t.listeners[i] = ls
		t.addrs[i] = ls.Addr().String()
		t.queues[i] = newFrameQueue()
		t.wg.Add(1)
		go t.acceptLoop(i, ls)
	}
	return nil
}

// Addr returns node's listen address (host:port), for diagnostics.
func (t *TCP) Addr(node int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if node < 0 || node >= len(t.addrs) {
		return ""
	}
	return t.addrs[node]
}

// acceptLoop accepts connections for one node server and spawns a
// reader per connection.
func (t *TCP) acceptLoop(node int, ls net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ls.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

// readLoop decodes frames off one accepted connection into the node's
// queue until the connection breaks or the backend closes.
func (t *TCP) readLoop(node int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	fr := newFrameReader(conn)
	for {
		f, err := fr.read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !t.isClosed() {
				// A mid-frame failure surfaces as a barrier timeout on
				// the scheduler side; the sender's retry path re-ships
				// the frame on a fresh connection.
				_ = err
			}
			return
		}
		t.framesRecv.Add(1)
		t.queues[node].push(f)
	}
}

// isClosed reports whether Close ran. Lock-free: the retry loops call
// it between backoff sleeps, where holding (or taking) t.mu would
// stall — or deadlock — the rest of the backend.
func (t *TCP) isClosed() bool {
	return t.closed.Load()
}

// tcpLink is one directed sender-side connection with redial + retry.
// It writes each marshaled frame with one conn.Write, so it needs no
// write buffer of its own.
type tcpLink struct {
	t    *TCP
	addr string
	conn net.Conn
	buf  []byte // marshal scratch
}

// Dial establishes (or returns) the from->to link. The connection is
// made lazily-but-eagerly here (not on first Send) so dial failures
// surface at link setup with a clear error.
func (t *TCP) Dial(from, to int) (Link, error) {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if err := checkNode("dialing", from, t.n); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	if err := checkNode("dialed", to, t.n); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	key := uint64(from)<<32 | uint64(uint32(to))
	if l, ok := t.links[key]; ok {
		t.mu.Unlock()
		return l, nil
	}
	l := &tcpLink{t: t, addr: t.addrs[to]}
	t.mu.Unlock()
	// Connect outside t.mu: connect() sleeps between backoff attempts
	// and polls the closed flag, neither of which may happen under the
	// lock (Recv, Close, and Addr all take it).
	if err := l.connect(); err != nil {
		return nil, fmt.Errorf("transport: dial %d->%d (%s): %w", from, to, l.addr, err)
	}
	t.mu.Lock()
	if t.closed.Load() {
		// Close tore the mesh down while we were dialing; don't leak the
		// connection past teardown.
		t.mu.Unlock()
		l.conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.links[key]; ok {
		// A concurrent Dial won the race; keep its link.
		t.mu.Unlock()
		l.conn.Close()
		return existing, nil
	}
	t.links[key] = l
	t.mu.Unlock()
	return l, nil
}

// connect dials the destination with backoff within the retry budget.
func (l *tcpLink) connect() error {
	var err error
	for attempt := 0; attempt <= Retries; attempt++ {
		if attempt > 0 {
			l.t.redials.Add(1)
			time.Sleep(backoffDelay(attempt))
		}
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", l.addr, DialTimeout)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // frames are latency-bound round barriers
			}
			l.conn = conn
			l.t.dials.Add(1)
			return nil
		}
		if l.t.isClosed() {
			return ErrClosed
		}
	}
	return err
}

// Send marshals and writes one frame, redialing on a broken
// connection until the retry budget is exhausted. Delivery is
// at-least-once: a write error does not prove the frame was lost (TCP
// can surface the failure after the bytes reached the peer), so a
// retried frame may arrive twice — the receiver-side drain dedups by
// frame coordinates.
func (l *tcpLink) Send(f Frame) error {
	l.buf = AppendFrame(l.buf[:0], f)
	var err error
	for attempt := 0; attempt <= Retries; attempt++ {
		if attempt > 0 {
			l.t.retries.Add(1)
			time.Sleep(backoffDelay(attempt))
			if err = l.connect(); err != nil {
				continue
			}
		}
		if l.conn == nil {
			if err = l.connect(); err != nil {
				continue
			}
		}
		if _, err = l.conn.Write(l.buf); err == nil {
			l.t.framesSent.Add(1)
			l.t.wireBytes.Add(int64(len(l.buf)))
			return nil
		}
		if l.t.isClosed() {
			return ErrClosed
		}
		l.conn.Close()
		l.conn = nil
	}
	return fmt.Errorf("transport: send to %s failed after %d attempts: %w", l.addr, Retries+1, err)
}

// backoffDelay returns the exponential backoff for the given attempt.
func backoffDelay(attempt int) time.Duration {
	return min(Backoff<<(attempt-1), MaxBackoff)
}

// Recv pops the next frame arrived at node to, waiting up to the
// configured round-barrier deadline.
func (t *TCP) Recv(to int) (Frame, error) {
	t.mu.Lock()
	n := t.n
	t.mu.Unlock()
	if err := checkNode("receiving", to, n); err != nil {
		return Frame{}, err
	}
	return t.queues[to].pop(t.cfg.RecvTimeout)
}

// Close shuts the mesh down: listeners stop accepting, sender
// connections close, reader goroutines drain, and blocked Recv calls
// return ErrClosed.
func (t *TCP) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.mu.Lock()
	t.teardownLocked()
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// teardownLocked closes listeners, links, and queues; the caller
// holds t.mu.
func (t *TCP) teardownLocked() {
	for _, ls := range t.listeners {
		if ls != nil {
			ls.Close()
		}
	}
	for _, l := range t.links {
		if l.conn != nil {
			l.conn.Close()
		}
	}
	for _, q := range t.queues {
		if q != nil {
			q.close()
		}
	}
}

// TransportStats returns the wire accounting snapshot.
func (t *TCP) TransportStats() Stats {
	return Stats{
		FramesSent:  t.framesSent.Load(),
		FramesRecv:  t.framesRecv.Load(),
		WireBytes:   t.wireBytes.Load(),
		Dials:       t.dials.Load(),
		Redials:     t.redials.Load(),
		SendRetries: t.retries.Load(),
	}
}
