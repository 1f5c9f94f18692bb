package sim

import (
	"cmp"
	"fmt"
	"slices"

	"sleepmst/internal/transport"
)

// The transport shim: with Config.Transport set, every same-round
// message copy that would reach an awake receiver is encoded into a
// wire frame, carried by the backend, and decoded back before it is
// deposited into the receiver's inbox. The simulator keeps all model
// decisions — sleeping-receiver losses are decided at the sending
// radio and never transmitted, the CONGEST bit cap is enforced on the
// declared size at both ends, and awake metering is untouched — so a
// run over a transport is byte-identical (traces, verdicts, metrics,
// Result) to the in-memory run, which the differential suite in
// internal/problem enforces.
//
// Delivery stays two-phase per round: the scheduler ships all of the
// round's surviving copies, then drains each receiver until the
// expected number of distinct frames arrived — wire duplicates from
// at-least-once retries are filtered, not counted — and deposits in
// the canonical order (scheduler-delayed copies first, by their FIFO
// sequence, then fresh sends by sender and port — exactly the
// in-memory deposit order).

// txState is the per-run transport bookkeeping, owned by the
// scheduler goroutine.
type txState struct {
	tx    transport.Transport
	n     int
	links map[int64]transport.Link
	// expect[v] counts frames shipped towards v this round; pending
	// lists the v with expect[v] > 0.
	expect  []int
	pending []int
	frames  []transport.Frame     // drain scratch
	seen    map[frameKey]struct{} // per-drain dedup scratch
	// enc and dec are the codec's writer and reader, reused for every
	// frame of the run: Send keeps no payload, and a decoded message
	// keeps none of the reader.
	enc transport.Writer
	dec transport.Reader
}

// frameKey identifies one routed copy within a (round, receiver)
// drain: fresh sends are unique per (sender, port), delayed replays
// per FIFO sequence, so two frames sharing a key are wire duplicates.
type frameKey struct {
	seq        int64
	from, port int32
}

func newTxState(tx transport.Transport, n int) *txState {
	return &txState{tx: tx, n: n, links: make(map[int64]transport.Link), expect: make([]int, n)}
}

// route carries one message copy towards an awake receiver: straight
// to deposit without a transport, over the wire otherwise. seq is 0
// for a fresh same-round send and the scheduler's FIFO sequence for a
// copy the interceptor delayed into this round; bits is the payload's
// measured size, or negative when deposit must measure it (see
// deposit).
func (rt *runtime) route(round, seq int64, from, fromPort, to, rev int, msg interface{}, bits int) error {
	if rt.tx == nil {
		return rt.deposit(round, from, fromPort, to, rev, msg, bits)
	}
	if err := rt.tx.ship(round, seq, from, fromPort, to, rev, msg); err != nil {
		return fmt.Errorf("sim: transport: %w (%w)", err, ErrAborted)
	}
	return nil
}

// ship encodes the payload and hands the frame to the backend.
func (s *txState) ship(round, seq int64, from, fromPort, to, rev int, msg interface{}) (err error) {
	defer transport.RecoverEncode(&err)
	payload, err := s.enc.Encode(msg)
	if err != nil {
		return err
	}
	key := int64(from)*int64(s.n) + int64(to)
	link, ok := s.links[key]
	if !ok {
		if link, err = s.tx.Dial(from, to); err != nil {
			return err
		}
		s.links[key] = link
	}
	f := transport.Frame{
		Round: round, Seq: seq,
		From: int32(from), Port: int32(fromPort),
		To: int32(to), Rev: int32(rev),
		Payload: payload,
	}
	if err := link.Send(f); err != nil {
		return err
	}
	if s.expect[to] == 0 {
		s.pending = append(s.pending, to)
	}
	s.expect[to]++
	return nil
}

// txDrain receives every frame shipped this round and deposits the
// decoded copies in the canonical in-memory order.
func (rt *runtime) txDrain(round int64) error {
	s := rt.tx
	if len(s.pending) == 0 {
		return nil
	}
	slices.Sort(s.pending)
	if s.seen == nil {
		s.seen = make(map[frameKey]struct{})
	}
	for _, to := range s.pending {
		want := s.expect[to]
		s.expect[to] = 0
		s.frames = s.frames[:0]
		clear(s.seen)
		// Drain-and-filter until `want` distinct frames arrive: the wire
		// is at-least-once (a sender's retry can duplicate a frame that
		// did reach us before the write error surfaced), so duplicates —
		// same coordinates this round, or a stale retransmit of an
		// earlier round — are dropped without counting toward want.
		for len(s.frames) < want {
			f, err := s.tx.Recv(to)
			if err != nil {
				return fmt.Errorf("sim: transport: round %d node %d: received %d of %d frame(s): %w (%w)",
					round, to, len(s.frames), want, err, ErrAborted)
			}
			if int(f.To) != to || f.Round > round {
				return fmt.Errorf("sim: transport: node %d drained stray frame (round %d from %d) during round %d: %w",
					to, f.Round, f.From, round, ErrAborted)
			}
			if f.Round < round {
				continue // stale duplicate of an already-drained round
			}
			key := frameKey{seq: f.Seq, from: f.From, port: f.Port}
			if _, dup := s.seen[key]; dup {
				continue // same-round wire duplicate
			}
			s.seen[key] = struct{}{}
			s.frames = append(s.frames, f)
		}
		// Canonical deposit order: scheduler-delayed copies first, in
		// their FIFO sequence, then fresh sends by (sender, port) — the
		// order the in-memory path deposits in, so a fresh message
		// overwrites a stale same-port replay, not vice versa.
		slices.SortFunc(s.frames, func(a, b transport.Frame) int {
			if (a.Seq > 0) != (b.Seq > 0) {
				if a.Seq > 0 {
					return -1
				}
				return 1
			}
			if a.Seq > 0 {
				return cmp.Compare(a.Seq, b.Seq)
			}
			if c := cmp.Compare(a.From, b.From); c != 0 {
				return c
			}
			return cmp.Compare(a.Port, b.Port)
		})
		for _, f := range s.frames {
			msg, err := s.dec.Decode(f.Payload)
			if err != nil {
				return fmt.Errorf("sim: transport: node %d round %d: %w (%w)", to, round, err, ErrAborted)
			}
			if err := rt.deposit(round, int(f.From), int(f.Port), int(f.To), int(f.Rev), msg, -1); err != nil {
				return err
			}
		}
	}
	s.pending = s.pending[:0]
	return nil
}
