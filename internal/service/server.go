package service

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sleepmst/internal/metrics"
)

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http's convention: it means the server stopped on purpose, not
// that accepting failed.
var ErrServerClosed = errors.New("service: server closed")

// Per-connection bounds on what a client can make the server hold.
const (
	// maxInFlight caps the requests one connection has read but not
	// yet answered. At the cap the server stops reading that
	// connection, so a client that pipelines without reading its
	// responses is held back by TCP flow control: it pins at most
	// maxInFlight goroutines and responses (each at most
	// MaxFrameBytes).
	maxInFlight = 8
	// writeTimeout bounds one response write. A write that misses it
	// closes the connection: the stream may end mid-frame, so the
	// remaining responses on it are dropped. A client that stopped
	// reading therefore holds its handler for at most writeTimeout
	// once its requests have finished.
	writeTimeout = 5 * time.Second
	// readTimeout bounds reading one request frame once its first byte
	// has arrived. A read that misses it hangs up, so a client that
	// stalls mid-frame holds its handler for at most readTimeout. No
	// deadline is armed between frames: an idle client keeps its
	// connection.
	readTimeout = 5 * time.Second
	// minAcceptBackoff and maxAcceptBackoff bound the pause after a
	// transient Accept failure, doubling per consecutive failure, as
	// net/http does.
	minAcceptBackoff = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

// Server exposes a Service over the length-prefixed wire protocol: it
// accepts connections, decodes Request frames, and answers each with
// a Response frame. Requests on one connection are pipelined — each
// runs on its own goroutine, at most maxInFlight at a time, and
// responses are written in completion order, correlated by ID, each
// under a writeTimeout deadline. A frame must arrive whole within
// readTimeout of its first byte.
//
// An undecodable frame gets a Response with ID = BadFrameID and
// StatusInvalid, then the connection is closed: past one corrupt
// frame the stream offsets cannot be trusted.
type Server struct {
	svc *Service

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps svc. The caller keeps ownership of svc's lifecycle
// insofar as Metrics() access goes, but Shutdown drains it.
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln until Shutdown. It returns
// ErrServerClosed after a clean Shutdown, or the accept error
// otherwise. An Accept that fails for want of file descriptors
// (EMFILE, ENFILE) or because the peer aborted the connection first
// (ECONNABORTED) is transient: Serve backs off and keeps accepting, so
// a burst of sockets cannot take down a daemon with admitted requests.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration // pause before the next Accept; 0 after a success
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			if !transientAccept(err) {
				return err
			}
			backoff = min(max(2*backoff, minAcceptBackoff), maxAcceptBackoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown is the graceful drain behind SIGTERM: stop accepting,
// finish every admitted request, flush every pending response, close
// every connection, and return once all handler goroutines are gone.
// New requests arriving mid-drain are answered StatusShuttingDown.
// Once the admitted requests have finished, a connection holds at
// most maxInFlight responses, each written within writeTimeout, so
// Shutdown returns within maxInFlight × writeTimeout of the drain —
// and within writeTimeout when a client has stopped reading, since its
// first timed-out write drops the connection.
// Safe to call more than once; later calls wait for the same drain.
func (s *Server) Shutdown() {
	s.mu.Lock()
	ln := s.ln
	s.closed = true
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Drain the pool first: every in-flight Submit returns, so every
	// pending response gets written before readers are unblocked.
	s.svc.Drain()
	s.mu.Lock()
	for conn := range s.conns {
		// Unblock handlers parked between or inside frames; they exit
		// silently on the deadline error after flushing in-flight
		// responses. Handlers leave a connection's read deadline alone
		// once s.closed is set, so this one stands.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// setReadDeadline sets conn's read deadline to t, unless Shutdown has
// begun: its deadline must not be cleared or pushed back.
func (s *Server) setReadDeadline(conn net.Conn, t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		conn.SetReadDeadline(t)
	}
}

// handle serves one connection: a read loop that decodes request
// frames and fans each out to its own goroutine, at most maxInFlight
// at a time, plus a write mutex serializing response frames.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	var (
		writeMu  sync.Mutex
		broken   atomic.Bool // a response write failed; the connection is finished
		inflight sync.WaitGroup
		slots    = make(chan struct{}, maxInFlight)
	)
	// Before the connection closes, wait for every dispatched request
	// to finish writing its response (runs before the conn.Close
	// defer above).
	defer inflight.Wait()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// respond writes resp with its trace given as the render's chunks.
	respond := func(resp Response, trace [][]byte) {
		writeMu.Lock()
		defer writeMu.Unlock()
		if broken.Load() {
			return
		}
		err := conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err == nil {
			err = WriteResponseParts(conn, resp, trace)
		}
		if err != nil {
			// The client went away or stopped reading, and the stream
			// may now end mid-frame: drop the connection. A request
			// whose response is lost completed and is accounted for.
			broken.Store(true)
			conn.Close()
		}
	}

	br := bufio.NewReader(conn)
	for {
		slots <- struct{}{} // blocks while maxInFlight requests are unanswered
		if broken.Load() {
			return // frames still buffered in br could never be answered
		}
		// Wait for a frame without a deadline, then give the rest of it
		// readTimeout to arrive.
		_, err := br.Peek(1)
		var req Request
		if err == nil {
			s.setReadDeadline(conn, time.Now().Add(readTimeout))
			req, err = ReadRequest(br)
			s.setReadDeadline(conn, time.Time{})
		}
		if err != nil {
			if isHangup(err) {
				return
			}
			// Malformed frame: answer with the documented bad-frame
			// response, then hang up — offsets past a corrupt frame
			// cannot be trusted.
			s.svc.reg.Add(metrics.ServiceBadFrames, 1)
			respond(Response{
				ID:     BadFrameID,
				Status: StatusInvalid,
				Detail: "malformed request frame: " + err.Error(),
			}, nil)
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-slots }()
			respond(s.svc.submit(req))
		}()
	}
}

// transientAccept reports whether an Accept error passes once load
// drops: the process or system is out of file descriptors, or a
// connection was aborted before it was accepted.
func transientAccept(err error) bool {
	return errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED)
}

// isHangup reports whether a read error means "the connection is
// done" (clean close, peer reset, a frame stalled past readTimeout, or
// the Shutdown read deadline) rather than a malformed frame worth
// answering.
func isHangup(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, syscall.ECONNRESET)
}
