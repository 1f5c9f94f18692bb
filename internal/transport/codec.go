package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// The wire codec. Every message type that crosses a transport
// registers a Codec under a stable numeric kind; EncodeMessage writes
// a self-describing body (uvarint kind + fields) and DecodeMessage
// reproduces the exact concrete Go value, so receive-side type
// assertions and Sizer dispatch behave identically to the in-memory
// delivery path. Codecs may nest: a wrapper message encodes its
// payload with EncodeMessage recursively (kind KindNil carries a nil
// payload). A registration is the one place a message type is
// declared: its wire kind, its tally label and its Go type.
//
// Kind ranges, to keep registrations collision-free across packages:
// 0 is reserved (nil), 1-15 transport-internal/test, 16-31
// internal/ldt, 32-63 internal/core, 64-79 internal/problem, 80-95
// internal/service (the request/response protocol of the persistent
// MST service).

// KindNil is the reserved kind of a nil payload.
const KindNil = 0

// Codec binds one concrete message type to its wire encoding and its
// tally label.
type Codec struct {
	// Kind is the stable wire id (see the range allocation above).
	Kind uint16
	// Label names the type's deliveries in the msgs/type/<label>
	// metric; an empty label tallies as "other".
	Label string
	// Type is the concrete Go type the codec serves.
	Type reflect.Type
	// Inner, if non-nil, returns the payload a wrapper message
	// carries; the wrapper then tallies as Label+"-"+the payload's
	// label when the payload's codec has one, and as Label otherwise.
	Inner func(msg interface{}) interface{}
	// Encode appends the message body (without the kind tag) to w.
	Encode func(msg interface{}, w *Writer)
	// Decode reads the body back and returns the concrete value.
	Decode func(r *Reader) interface{}
}

var (
	codecMu      sync.RWMutex
	codecsByKind = map[uint16]*Codec{}
	codecsByType = map[reflect.Type]*Codec{}
)

// Register installs a message codec. It panics on a duplicate kind or
// type — registration is an init-time programming contract, not a
// runtime condition.
func Register(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if c.Kind == KindNil {
		panic(fmt.Sprintf("transport: codec for %v claims reserved kind 0", c.Type))
	}
	if prev, ok := codecsByKind[c.Kind]; ok {
		panic(fmt.Sprintf("transport: codec kind %d already registered for %v", c.Kind, prev.Type))
	}
	if prev, ok := codecsByType[c.Type]; ok {
		panic(fmt.Sprintf("transport: codec type %v already registered as kind %d", c.Type, prev.Kind))
	}
	cp := c
	codecsByKind[c.Kind] = &cp
	codecsByType[c.Type] = &cp
}

// CodecOf returns the codec registered for msg's concrete type, or nil
// when there is none (a nil msg included).
func CodecOf(msg interface{}) *Codec {
	codecMu.RLock()
	c := codecsByType[reflect.TypeOf(msg)]
	codecMu.RUnlock()
	return c
}

// EncodeMessage appends the self-describing encoding of msg (uvarint
// kind + body) to buf and returns the extended slice. A nil msg
// encodes as KindNil; an unregistered type is an error — the caller
// aborts the run rather than ship an inexpressible payload. A caller
// encoding many messages reuses one Writer instead (see
// Writer.Encode).
func EncodeMessage(buf []byte, msg interface{}) ([]byte, error) {
	w := &Writer{buf: buf}
	if err := w.message(msg); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// DecodeMessage reads one self-describing message from r. It returns
// nil for KindNil and an error for an unknown kind or a truncated
// body.
func DecodeMessage(r *Reader) (interface{}, error) {
	kind := r.Uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if kind == KindNil {
		return nil, nil
	}
	codecMu.RLock()
	c, ok := codecsByKind[uint16(kind)]
	codecMu.RUnlock()
	if !ok || kind > 1<<16-1 {
		return nil, fmt.Errorf("transport: unknown message kind %d on the wire", kind)
	}
	msg := c.Decode(r)
	if r.err != nil {
		return nil, fmt.Errorf("transport: decoding %v: %w", c.Type, r.err)
	}
	return msg, nil
}

// DecodePayload decodes a frame payload produced by EncodeMessage,
// requiring the body to be consumed exactly. A caller decoding many
// payloads reuses one Reader instead (see Reader.Decode).
func DecodePayload(payload []byte) (interface{}, error) {
	return new(Reader).Decode(payload)
}

// Writer appends primitive fields in the canonical wire order. The
// zero value writes into a fresh buffer.
type Writer struct {
	buf []byte
}

// Encode replaces w's contents with the self-describing encoding of
// msg, as EncodeMessage would append it, and returns them. The slice
// is valid until w's next Encode, which reuses its array, so a caller
// that encodes every frame through one Writer allocates nothing once
// the array has grown. A nested unregistered payload panics as in
// Nested; recover it with RecoverEncode.
func (w *Writer) Encode(msg interface{}) ([]byte, error) {
	w.buf = w.buf[:0]
	if err := w.message(msg); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// message appends the kind of msg and its body.
func (w *Writer) message(msg interface{}) error {
	if msg == nil {
		w.Uint(KindNil)
		return nil
	}
	c := CodecOf(msg)
	if c == nil {
		return fmt.Errorf("transport: no codec registered for message type %T", msg)
	}
	w.Uint(uint64(c.Kind))
	c.Encode(msg, w)
	return nil
}

// Int appends a zig-zag varint.
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Uint appends a uvarint.
func (w *Writer) Uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// Bytes appends a uvarint length-prefixed byte string. Strings travel
// the same way: the service protocol encodes them as Bytes of their
// UTF-8 contents.
func (w *Writer) Bytes(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Nested appends a nested self-describing message in place; an
// unregistered payload type panics (codecs run inside EncodeMessage,
// which has no error channel per field — the panic is converted to an
// error at the frame boundary by the sim shim's send path).
func (w *Writer) Nested(msg interface{}) {
	if err := w.message(msg); err != nil {
		panic(codecPanic{err})
	}
}

// codecPanic carries a nested-encode error through Encode callbacks.
type codecPanic struct{ err error }

// RecoverEncode converts a codecPanic raised by Writer.Nested back
// into an error; other panics are re-raised. Use it in a defer around
// EncodeMessage calls that may hit nested unregistered payloads.
func RecoverEncode(err *error) {
	if r := recover(); r != nil {
		if cp, ok := r.(codecPanic); ok {
			*err = cp.err
			return
		}
		panic(r)
	}
}

// Reader consumes primitive fields in the canonical wire order. The
// first malformed field poisons the reader; check Err (or rely on
// DecodeMessage, which does).
type Reader struct {
	buf []byte
	off int
	err error
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Decode resets r to payload and decodes the one message it holds, as
// DecodePayload does, requiring the payload to be consumed exactly. A
// caller that decodes every frame through one Reader allocates only
// the decoded values.
func (r *Reader) Decode(payload []byte) (interface{}, error) {
	*r = Reader{buf: payload}
	msg, err := DecodeMessage(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("transport: %d trailing payload byte(s) after decode", len(r.buf)-r.off)
	}
	return msg, nil
}

// Int reads a zig-zag varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.err = fmt.Errorf("truncated bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.err = fmt.Errorf("malformed bool byte %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

// Bytes reads a uvarint length-prefixed byte string. The returned
// slice aliases the reader's buffer — copy it before retaining it
// past the decode. A length prefix that exceeds the remaining buffer
// poisons the reader instead of allocating: a truncated or hostile
// frame can never request more memory than it shipped.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	rem := len(r.buf) - r.off
	if n > uint64(rem) {
		r.err = fmt.Errorf("byte string length %d exceeds %d remaining byte(s) at offset %d", n, rem, r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Nested reads a nested self-describing message.
func (r *Reader) Nested() interface{} {
	if r.err != nil {
		return nil
	}
	msg, err := DecodeMessage(r)
	if err != nil {
		r.err = err
		return nil
	}
	return msg
}

// MaxFrameBytes bounds one marshaled frame; a length prefix beyond it
// is treated as stream corruption rather than an allocation request.
const MaxFrameBytes = 1 << 20

// AppendFrame appends the length-prefixed binary encoding of f to buf:
// uvarint body length, then varint Round and Seq, varint routing
// coordinates, and the uvarint-prefixed payload. The body is written
// straight into buf, so a buf with spare capacity costs no allocation.
func AppendFrame(buf []byte, f Frame) []byte {
	buf = binary.AppendUvarint(buf, uint64(frameBodyBytes(f)))
	buf = binary.AppendVarint(buf, f.Round)
	buf = binary.AppendVarint(buf, f.Seq)
	buf = binary.AppendVarint(buf, int64(f.From))
	buf = binary.AppendVarint(buf, int64(f.Port))
	buf = binary.AppendVarint(buf, int64(f.To))
	buf = binary.AppendVarint(buf, int64(f.Rev))
	buf = binary.AppendUvarint(buf, uint64(len(f.Payload)))
	return append(buf, f.Payload...)
}

// The read loop's buffer sizes. Frames are a few dozen bytes, so a
// connection reads through a small bufio.Reader and carves its frame
// bodies out of blocks of bodyBlockBytes.
const (
	readBufferBytes = 256
	bodyBlockBytes  = 1 << 10
)

// frameReader reads the length-prefixed frames of one connection. It
// carves each frame's body out of a block it never rewrites, so a
// returned frame's payload stays valid after later reads and the loop
// allocates once per block, not once per frame; a body larger than a
// block gets its own allocation.
type frameReader struct {
	br    *bufio.Reader
	block []byte // the unused tail of the current block
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufferBytes)}
}

// read reads the next frame.
func (fr *frameReader) read() (Frame, error) {
	length, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return Frame{}, err
	}
	if length > MaxFrameBytes {
		return Frame{}, fmt.Errorf("transport: frame length %d exceeds cap %d (stream corrupt?)", length, MaxFrameBytes)
	}
	n := int(length)
	var body []byte
	if n > bodyBlockBytes {
		body = make([]byte, n)
	} else {
		if n > len(fr.block) {
			fr.block = make([]byte, bodyBlockBytes)
		}
		body, fr.block = fr.block[:n:n], fr.block[n:]
	}
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return Frame{}, fmt.Errorf("transport: truncated frame: %w", err)
	}
	r := Reader{buf: body}
	var f Frame
	f.Round = r.Int()
	f.Seq = r.Int()
	f.From = int32(r.Int())
	f.Port = int32(r.Int())
	f.To = int32(r.Int())
	f.Rev = int32(r.Int())
	plen := r.Uvarint()
	if r.err != nil {
		return Frame{}, fmt.Errorf("transport: malformed frame header: %w", r.err)
	}
	if int(plen) != len(body)-r.off {
		return Frame{}, fmt.Errorf("transport: frame payload length %d disagrees with body remainder %d", plen, len(body)-r.off)
	}
	f.Payload = body[r.off:]
	return f, nil
}

// FrameWireBytes returns the exact on-the-wire size of f — the byte
// count AppendFrame would produce — without building the encoding, so
// wire accounting costs no allocation.
func FrameWireBytes(f Frame) int64 {
	body := frameBodyBytes(f)
	return uvarintLen(uint64(body)) + body
}

// frameBodyBytes returns the size of f's body: everything AppendFrame
// writes after the length prefix, which encodes this value.
func frameBodyBytes(f Frame) int64 {
	return varintLen(f.Round) + varintLen(f.Seq) +
		varintLen(int64(f.From)) + varintLen(int64(f.Port)) +
		varintLen(int64(f.To)) + varintLen(int64(f.Rev)) +
		uvarintLen(uint64(len(f.Payload))) + int64(len(f.Payload))
}

// uvarintLen returns the encoded size of x as a uvarint.
func uvarintLen(x uint64) int64 {
	n := int64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded size of v as a zig-zag varint.
func varintLen(v int64) int64 {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}
