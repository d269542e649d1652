package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nuconsensus/internal/model"
)

// MaxFrameSize bounds a frame on either protocol: a peer frame of netrun
// or a client payload frame of cmd/nucd. A length prefix beyond it is
// treated as a corrupted stream, not an allocation request.
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

// ReadFrame reads one varint-length-prefixed frame into a buffer leased
// from the pool; the caller returns it with PutBuf. A prefix above
// MaxFrameSize is an error, so a corrupted stream never reaches GetBuf.
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
