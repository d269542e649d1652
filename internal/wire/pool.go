package wire

import "sync"

// The package buffer pool recycles the byte frames the transports move
// through the codec: netrun's readers lease a buffer per received frame and
// return it once the payload has been decoded at Resolve time, and its
// writer encodes every outgoing message into a leased buffer that goes back
// to the pool after the socket write. It is the module's only sync.Pool
// (TestOnePool), and GetBuf/PutBuf are its only API, so what a pool may
// hold is decided by its type: byte buffers. Decoded messages and payloads
// are never pooled, because automata may retain payloads indefinitely (see
// DESIGN.md §8). Buffer contents are always overwritten before use (GetBuf
// returns length 0; readers ReadFull into the full frame), so recycled
// bytes can never influence control flow.
var bufPool = sync.Pool{
	New: func() interface{} { return new([]byte) },
}

// poison is the byte PutBuf fills a returned buffer with.
const poison = 0xEE

// GetBuf leases a byte buffer from the package pool with length 0 and
// capacity at least n. Append into it (AppendMessage) or reslice to length
// (frame reads); pass it to PutBuf when the bytes are no longer referenced.
func GetBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	*bp = nil
	bufPool.Put(bp)
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// PutBuf returns a buffer leased by GetBuf to the pool. The caller must not
// retain any reference into b afterwards: the next GetBuf may hand the same
// backing array to another goroutine. PutBuf first fills all of b's
// capacity with the poison byte, so a use after put — a decoded value that
// still aliases the frame, or a read of a recycled frame — sees garbage at
// once, in every test run, rather than only when another goroutine happens
// to reuse the buffer (TestPutBufPoisons, TestPooledFrameAliasing).
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	b[0] = poison
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
	bp := bufPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}
