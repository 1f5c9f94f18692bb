// Package transport is the pluggable wire layer that promotes the
// sleeping-model algorithms off the in-process simulator onto a real
// message-passing deployment: every same-round delivery is encoded
// into a length-prefixed binary frame, carried by a backend, and
// decoded on the receive side before it reaches the node program.
//
// TCP is the one backend: every node is a long-lived TCP server on a
// loopback port, links are dialed lazily, frames are length-prefixed
// binary records, sends retry with deadline/backoff across redials, and
// Close tears the mesh down gracefully. A run over TCP is byte-identical
// to a run without any transport, which is what proves codec fidelity
// (the transport differential suite in internal/problem enforces it).
//
// The division of labor with internal/sim: the simulator remains the
// round scheduler and the model's source of truth — it decides which
// receivers are awake (a frame to a sleeping radio is lost at the
// sender and never transmitted), enforces the CONGEST BitCap on the
// declared message size at both ends, and meters awake complexity.
// The transport carries the surviving same-round copies and meters
// the physical wire cost (frames, bytes, retries). A Transport serves
// one run: sim.Run calls Listen once, the owner calls Close.
package transport

import (
	"errors"
	"fmt"
)

// Frame is the wire unit: one routed message copy of one simulated
// round. The header fields are the simulator's routing coordinates;
// Payload is the codec-encoded message body (see EncodeMessage).
type Frame struct {
	// Round is the simulated round the copy is delivered in.
	Round int64
	// Seq orders scheduler-delayed copies within a round: 0 marks a
	// fresh same-round send, positive values replay the simulator's
	// FIFO order for copies an interceptor postponed. Delayed copies
	// sort before fresh ones at the receiver, exactly like the
	// in-memory delivery path.
	Seq int64
	// From and Port identify the send: node From transmitted on its
	// port Port.
	From, Port int32
	// To and Rev identify the receive: node To hears the copy on its
	// port Rev (the reverse port of the send).
	To, Rev int32
	// Payload is the encoded message body.
	Payload []byte
}

// Link is one directed sender-side connection. Send transmits a frame
// towards the link's destination endpoint; implementations retry
// transient failures within their configured budget and return an
// error only when the frame could not be handed to the wire at all.
// Delivery is at-least-once, not exactly-once: a retried send may
// duplicate a frame the receiver already has (the failure can surface
// after the bytes arrived), so receivers must dedup by the frame's
// routing coordinates (Round, Seq, From, Port) — the simulator's
// round drain does. Send must not keep f.Payload after it returns:
// the simulator encodes every frame into one reused buffer.
type Link interface {
	// Send transmits one frame.
	Send(Frame) error
}

// Transport is a backend able to carry frames between the n node
// endpoints of one simulation run. All methods except the endpoint
// internals are called from the scheduler goroutine only; Listen is
// called exactly once, before any Dial or Recv.
type Transport interface {
	// Listen brings up the receive endpoints of nodes 0..n-1.
	Listen(n int) error
	// Dial establishes (or returns) the from->to link.
	Dial(from, to int) (Link, error)
	// Recv blocks for the next frame arrived at node to, up to the
	// backend's receive deadline. It returns ErrTimeout (wrapped) when
	// the deadline passes and ErrClosed after Close.
	Recv(to int) (Frame, error)
	// Close tears the backend down: endpoints stop accepting, links
	// close, and blocked Recv calls return ErrClosed.
	Close() error
}

// Stats is the physical wire accounting of one run. Counters that
// depend on timing (retries, redials) are reported here and kept out
// of the deterministic metrics registry on purpose.
type Stats struct {
	// FramesSent and FramesRecv count frames handed to and read off
	// the wire.
	FramesSent, FramesRecv int64
	// WireBytes is the total encoded frame size put on the wire,
	// retransmissions included.
	WireBytes int64
	// Dials counts link establishments; Redials counts re-dials after
	// a broken connection.
	Dials, Redials int64
	// SendRetries counts frame send attempts beyond the first.
	SendRetries int64
}

// Typed failure causes, wrapped into returned errors so callers can
// classify with errors.Is.
var (
	// ErrTimeout: a Recv passed the backend's receive deadline — in a
	// synchronous round this means an expected frame never arrived.
	ErrTimeout = errors.New("transport: receive deadline exceeded")
	// ErrClosed: the backend was closed.
	ErrClosed = errors.New("transport: closed")
)

// checkNode validates a node index against the endpoint count.
func checkNode(who string, node, n int) error {
	if node < 0 || node >= n {
		return fmt.Errorf("transport: %s node %d outside [0, %d)", who, node, n)
	}
	return nil
}
