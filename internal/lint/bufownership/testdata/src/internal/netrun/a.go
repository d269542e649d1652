// Fixture for bufownership: this package path ends in internal/netrun, a
// pooling host, so pooled buffers leased from wire.GetBuf (or any pool
// getter) must not be used, re-put or escape after wire.PutBuf on any
// path.
package netrun

import (
	"sync"

	"nuconsensus/internal/wire"
)

var sink []byte

var outbox = make(chan []byte, 1)

type envelope struct {
	payload []byte
}

// useAfterPutRead: the canonical bug — decode from a frame whose backing
// array is already back in the pool.
func useAfterPutRead() byte {
	frame := wire.GetBuf(64)
	wire.PutBuf(frame)
	return frame[0] // want `pooled buffer frame read after PutBuf \(line 25\)`
}

// writeAfterPut: writing through the recycled buffer corrupts whoever
// the pool handed it to next.
func writeAfterPut() {
	buf := wire.GetBuf(16)
	wire.PutBuf(buf)
	buf[0] = 0xff // want `pooled buffer buf written through after PutBuf \(line 33\)`
}

// doublePut hands the same backing array to two owners.
func doublePut() {
	b := wire.GetBuf(32)
	wire.PutBuf(b)
	wire.PutBuf(b) // want `pooled buffer b recycled twice: already returned to the pool at line 40`
}

// escapeArg: a recycled buffer passed onward is a use-after-put in the
// callee.
func escapeArg() {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	consume(b) // want `pooled buffer b passed to a call after PutBuf \(line 48\)`
}

// escapeReturn: returning a recycled buffer leaks the pool's storage to
// the caller.
func escapeReturn() []byte {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	return b // want `pooled buffer b returned after PutBuf \(line 56\)`
}

// escapeStore: parking a recycled buffer in a long-lived structure keeps
// an alias the pool no longer knows about.
func escapeStore() {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	sink = b // want `pooled buffer b stored after PutBuf \(line 64\)`
}

// escapeSend: a channel send is a store too.
func escapeSend() {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	outbox <- b // want `pooled buffer b stored after PutBuf \(line 71\)`
}

// escapeComposite: so is packing the buffer into a composite literal.
func escapeComposite() envelope {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	return envelope{payload: b} // want `pooled buffer b stored after PutBuf \(line 78\)`
}

// escapeCapture: a closure over a recycled buffer can resurrect it
// arbitrarily later.
func escapeCapture() func() byte {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	return func() byte { return b[0] } // want `pooled buffer b captured by a closure after PutBuf \(line 86\)`
}

// aliasAfterPut: the put kills the whole alias class — a reslice taken
// before the put shares the backing array.
func aliasAfterPut() byte {
	frame := wire.GetBuf(64)
	view := frame[:16]
	wire.PutBuf(frame)
	return view[3] // want `pooled buffer view read after PutBuf \(line 95\)`
}

// putOnOneBranch: the use is only wrong on the branch that put, and the
// join must keep the fact.
func putOnOneBranch(drop bool) byte {
	b := wire.GetBuf(8)
	if drop {
		wire.PutBuf(b)
	}
	return b[0] // want `pooled buffer b read after PutBuf \(line 104\)`
}

// directPoolPut: a raw sync.Pool Put ends the lease just like PutBuf.
var rawPool = sync.Pool{New: func() interface{} { return new([]byte) }}

func directPoolPut() byte {
	bp := rawPool.Get().(*[]byte)
	b := *bp
	rawPool.Put(bp)
	return b[0] // ok: deref aliasing is beyond the shallow tracker — but:
}

func directPoolPutSame() {
	bp := rawPool.Get().(*[]byte)
	rawPool.Put(bp)
	rawPool.Put(bp) // want `pooled buffer bp recycled twice: already returned to the pool at line 121`
}

// --- clean patterns the analyzer must not flag ---

// putThenRelease is the netrun reader shape: decode, put, return the
// decoded value (not the frame).
func putThenRelease() (byte, error) {
	frame := wire.GetBuf(16)
	v := frame[0]
	wire.PutBuf(frame)
	return v, nil
}

// loopRecycle is the netrun dispatch shape: lease at the loop top, put
// at the bottom, lease again next iteration. The reassignment at the
// loop head re-leases the variable.
func loopRecycle(n int) {
	for i := 0; i < n; i++ {
		frame := wire.GetBuf(64)
		frame = append(frame, byte(i))
		consume(frame)
		wire.PutBuf(frame)
	}
}

// reassignResurrects: a fresh lease into the same variable ends the
// dead state for that variable.
func reassignResurrects() byte {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	b = wire.GetBuf(8)
	v := b[0]
	wire.PutBuf(b)
	return v
}

// putOnEveryPathThenDone puts on both arms and never touches the buffer
// again: nothing to report.
func putOnEveryPathThenDone(big bool) {
	b := wire.GetBuf(8)
	if big {
		b = append(b, 1)
		wire.PutBuf(b)
	} else {
		wire.PutBuf(b)
	}
}

// deferredPut runs after every use in the body: the deferred call must
// not kill the buffer mid-function.
func deferredPut() byte {
	b := wire.GetBuf(8)
	defer wire.PutBuf(b)
	b = append(b, 7)
	return b[0]
}

// allowEscape: an intentional protocol break is documented and allowed.
func allowEscape() []byte {
	b := wire.GetBuf(8)
	wire.PutBuf(b)
	//lint:allow bufownership fixture: intentional protocol break under test
	return b
}

func consume(b []byte) { _ = b }

// encodeDeltaShape is the delta-encode frame protocol: lease, append the
// uvarint-packed (R, Q) adds, hand the frame onward, recycle — the clean
// steady state of the shared log's delta sends.
func encodeDeltaShape(adds [][2]uint64) {
	frame := wire.GetBuf(64)
	for _, e := range adds {
		frame = append(frame, byte(e[0]), byte(e[1]))
	}
	consume(frame)
	wire.PutBuf(frame)
}

// encodeDeltaUseAfterPut returns the encoded delta frame after recycling
// it: the caller would read bytes the pool may already have handed to
// another encoder.
func encodeDeltaUseAfterPut(adds [][2]uint64) []byte {
	frame := wire.GetBuf(64)
	for _, e := range adds {
		frame = append(frame, byte(e[0]), byte(e[1]))
	}
	wire.PutBuf(frame)
	return frame // want `pooled buffer frame returned after PutBuf \(line 210\)`
}

// writeFrameShape is the serve client-protocol write path (cmd/nucd's
// reply sender): lease a frame, reserve the length hole, append the
// encoded batch, write it out, recycle. Clean steady state.
func writeFrameShape(cmds []uint64) {
	frame := wire.GetBuf(128)
	frame = append(frame, 0) // length hole
	for _, c := range cmds {
		frame = append(frame, byte(c))
	}
	consume(frame)
	wire.PutBuf(frame)
}

// stashBatchBody: parking a decoded batch frame in a long-lived body
// table after recycling it aliases storage the pool now owns — the
// applier must copy commands out before the frame goes back.
var bodyTable = map[int][]byte{}

func stashBatchBody(id int) {
	frame := wire.GetBuf(128)
	wire.PutBuf(frame)
	bodyTable[id] = frame // want `pooled buffer frame stored after PutBuf \(line 234\)`
}

// putAnything launders a pointer-carrying value through a well-shaped
// pool: the Put shape check catches what the New hook check cannot see.
func putAnything(vals []interface{}) {
	rawPool.Put(&vals) // want `sync.Pool.Put of \*\[\]interface\{\}`
}
