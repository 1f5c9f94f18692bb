package transport

import (
	"sync"
	"time"
)

// frameQueue is an unbounded MPSC frame queue: endpoint readers push,
// the scheduler pops. Unbounded on purpose — the scheduler drains a
// round's frames only after it finished sending the round, so a
// bounded queue could deadlock the senders against the drain.
//
// The queue keeps its array when drained: pop advances head, and the
// array rewinds once empty, so a run grows it to its largest round
// once instead of every round.
type frameQueue struct {
	mu     sync.Mutex
	buf    []Frame // buf[head:] are the queued frames
	head   int
	sig    chan struct{} // capacity 1: "the queue may be non-empty"
	done   chan struct{} // closed by close()
	closed bool

	// timer bounds a blocking pop. Only the one consumer touches it,
	// and it is reused across pops: with go 1.23 timers, Reset and Stop
	// leave no stale tick to drain.
	timer *time.Timer
}

func newFrameQueue() *frameQueue {
	return &frameQueue{sig: make(chan struct{}, 1), done: make(chan struct{})}
}

// push appends a frame and nudges a blocked pop.
func (q *frameQueue) push(f Frame) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full with popped slots in front: slide the queued frames down
		// instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, f)
	q.mu.Unlock()
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

// pop removes the oldest frame, blocking up to timeout. It has one
// caller at a time: the scheduler draining the queue's node.
func (q *frameQueue) pop(timeout time.Duration) (Frame, error) {
	armed := false
	for {
		q.mu.Lock()
		if q.head < len(q.buf) {
			f := q.buf[q.head]
			q.buf[q.head] = Frame{} // release the payload reference
			q.head++
			if q.head == len(q.buf) {
				q.buf, q.head = q.buf[:0], 0
			}
			q.mu.Unlock()
			if armed {
				q.timer.Stop()
			}
			return f, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return Frame{}, ErrClosed
		}
		if !armed {
			if q.timer == nil {
				q.timer = time.NewTimer(timeout)
			} else {
				q.timer.Reset(timeout)
			}
			armed = true
		}
		select {
		case <-q.sig:
		case <-q.done:
		case <-q.timer.C:
			return Frame{}, ErrTimeout
		}
	}
}

// close wakes blocked pops with ErrClosed once the buffer drains.
func (q *frameQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.done)
}
