package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// readFrameReference is the one-allocation frame reader the read loop
// used before it carved bodies out of blocks: a fresh body per frame,
// read through a default-sized bufio.Reader. FuzzReadFrame holds the
// block-carving frameReader to it.
func readFrameReference(br *bufio.Reader) (Frame, error) {
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	if length > MaxFrameBytes {
		return Frame{}, fmt.Errorf("transport: frame length %d exceeds cap %d (stream corrupt?)", length, MaxFrameBytes)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
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

// chunkReader returns at most n bytes per Read, so a stream reaches
// the frame reader in pieces that cut across frames.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[k:]
	return k, nil
}

// frameOfBody returns a frame whose body is exactly body bytes long.
func frameOfBody(tb testing.TB, body int) Frame {
	f := Frame{Round: 5, Seq: 1, From: 2, Port: 3, To: 4, Rev: 1, Payload: bytes.Repeat([]byte{0x3c}, body)}
	for frameBodyBytes(f) > int64(body) && len(f.Payload) > 0 {
		f.Payload = f.Payload[1:]
	}
	if frameBodyBytes(f) != int64(body) {
		tb.Fatalf("no payload gives a %d-byte body", body)
	}
	return f
}

// FuzzReadFrame feeds arbitrary byte streams, in arbitrary pieces,
// through the read loop's frameReader and through readFrameReference.
// Both must read the same frames and stop at the same error; and
// after the last read, every frame read earlier must still hold its
// payload, since the blocks its body was carved from are never
// rewritten.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	for _, body := range []int{8, 100, bodyBlockBytes - 1, bodyBlockBytes, bodyBlockBytes + 1, 3 * bodyBlockBytes} {
		frame := AppendFrame(nil, frameOfBody(f, body))
		f.Add(frame, uint8(255))
		f.Add(frame[:len(frame)-1], uint8(7)) // a truncated body
		stream = append(stream, frame...)
	}
	f.Add(stream, uint8(0))
	f.Add(stream, uint8(63))
	var many []byte
	for i := 0; i < 40; i++ {
		many = AppendFrame(many, Frame{Round: int64(i), From: int32(i), Payload: bytes.Repeat([]byte{byte(i)}, 10+3*i)})
	}
	f.Add(many, uint8(30))
	f.Add(binary.AppendUvarint(nil, MaxFrameBytes+1), uint8(255))
	f.Add(append(AppendFrame(nil, Frame{Round: 1}), binary.AppendUvarint(nil, MaxFrameBytes+1)...), uint8(1))
	f.Add([]byte{0x80, 0x80, 0x80}, uint8(2)) // a length prefix cut short
	f.Add([]byte{3, 0, 0, 0}, uint8(4))       // a header cut short inside its body
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		ref := bufio.NewReader(bytes.NewReader(data))
		fr := newFrameReader(&chunkReader{data: data, n: int(chunk) + 1})
		var got []Frame
		var want [][]byte // the payloads as read
		for {
			wf, werr := readFrameReference(ref)
			gf, gerr := fr.read()
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("frame %d: error %v, want %v", len(got), gerr, werr)
			}
			if werr != nil {
				break
			}
			if gf.Round != wf.Round || gf.Seq != wf.Seq || gf.From != wf.From || gf.Port != wf.Port ||
				gf.To != wf.To || gf.Rev != wf.Rev || !bytes.Equal(gf.Payload, wf.Payload) {
				t.Fatalf("frame %d: got %+v, want %+v", len(got), gf, wf)
			}
			if cap(gf.Payload) != len(gf.Payload) {
				t.Fatalf("frame %d: payload capacity %d runs past its %d bytes", len(got), cap(gf.Payload), len(gf.Payload))
			}
			got = append(got, gf)
			want = append(want, bytes.Clone(wf.Payload))
		}
		for i := range got {
			if !bytes.Equal(got[i].Payload, want[i]) {
				t.Fatalf("frame %d's payload changed after later reads", i)
			}
		}
	})
}
