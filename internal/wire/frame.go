package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nuconsensus/internal/model"
)

// MaxFrameSize bounds a frame on either protocol: a peer frame of netrun
// or a client payload frame of cmd/nucd. A client frame's length prefix
// beyond it, or a peer stream that passes it before a frame's last item,
// is treated as a corrupted stream, not an allocation request.
const MaxFrameSize = 1 << 20

// WritePayloadFrame writes one varint-length-prefixed payload frame — the
// client protocol of cmd/nucd — encoding into a pooled buffer so the
// steady-state serving path does not allocate per frame. Callers sharing a
// writer across goroutines serialize externally.
func WritePayloadFrame(w io.Writer, pl model.Payload) error {
	buf := GetBuf(64 + binary.MaxVarintLen64)
	defer PutBuf(buf)
	buf = append(buf, make([]byte, binary.MaxVarintLen64)...) // length hole
	buf, err := AppendPayload(buf, pl)
	if err != nil {
		return err
	}
	body := len(buf) - binary.MaxVarintLen64
	// Right-align the varint against the body so the frame is contiguous.
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(body))
	start := binary.MaxVarintLen64 - n
	copy(buf[start:], hdr[:n])
	_, err = w.Write(buf[start:])
	return err
}

// ReadFrame reads one varint-length-prefixed frame of the client protocol
// into a buffer leased from the pool; the caller returns it with PutBuf. A
// prefix above MaxFrameSize is an error, so a corrupted stream never
// reaches GetBuf. Peer frames have no prefix: ReadLinkFrame reads them.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", size, MaxFrameSize)
	}
	frame := GetBuf(int(size))[:size]
	if _, err := io.ReadFull(r, frame); err != nil {
		PutBuf(frame)
		return nil, err
	}
	return frame, nil
}

// ReadPayloadFrame reads one varint-length-prefixed payload frame and
// decodes it. The returned payload never aliases the read buffer.
func ReadPayloadFrame(r *bufio.Reader) (model.Payload, error) {
	buf, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	defer PutBuf(buf)
	return DecodePayload(buf)
}

// ReadLinkFrame reads one peer frame, as Link.Append writes it, off a
// link's stream into a buffer leased from the pool; the caller returns it
// with PutBuf. A peer frame has no length prefix: ReadLinkFrame walks its
// items' fields (skipItem) up to the one whose first byte marks it its
// frame's last, and takes from r exactly the frame's bytes, so r is left
// at the next frame. Nothing is decoded, and no count read from the
// stream sizes anything: the buffer grows only by bytes that arrived. A
// byte no item starts with, and a frame that would pass MaxFrameSize
// before its last item, are errors. It returns io.EOF when r ends between
// frames, and io.ErrUnexpectedEOF inside one.
func ReadLinkFrame(r *bufio.Reader) ([]byte, error) {
	if _, err := r.Peek(1); err != nil {
		return nil, err
	}
	// Nearly every frame is whole in r's buffer: walk it there.
	in, _ := r.Peek(r.Buffered())
	w := buf{b: in}
	for !skipItem(&w) && w.err == nil {
	}
	if w.err == nil && w.pos <= MaxFrameSize {
		frame := append(GetBuf(w.pos), in[:w.pos]...)
		_, err := r.Discard(w.pos)
		return frame, err
	}
	// Otherwise pull each byte the walk needs as it needs it.
	f := buf{b: GetBuf(64), src: r}
	for !skipItem(&f) && f.err == nil {
	}
	if f.err != nil {
		PutBuf(f.b)
		return nil, f.err
	}
	return f.b, nil
}
