// Fixture for bufownership's pool-shape rule: every sync.Pool must be
// confined to pointer-free buffer reuse (*[]T with pointer-free T), at the
// New hook and at every Put.
package wire

import "sync"

type ProcessSet uint64

type Message struct {
	From    int
	Payload interface{}
}

// The sanctioned shapes: byte-buffer scratch and pointer-free sort scratch.
var bufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

var qsetScratch = sync.Pool{New: func() interface{} { return new([]ProcessSet) }}

// Pointer-free struct elements are fine too.
type sample struct {
	P int
	D int
	K [4]uint64
}

var samplePool = sync.Pool{New: func() interface{} { return new([]sample) }}

// Pooling objects that carry pointers is the aliasing doctrine violation.
var msgPool = sync.Pool{New: func() interface{} { return new(Message) }} // want `sync.Pool New returns \*Message`

var strPool = sync.Pool{New: func() interface{} { return new([]string) }} // want `sync.Pool New returns \*\[\]string`

var slicePool = sync.Pool{New: func() interface{} { return new([][]byte) }} // want `sync.Pool New returns \*\[\]\[\]byte`

// A pool without a checkable New hook is flagged outright.
var blindPool = sync.Pool{} // want `sync.Pool without a New hook`

func makeBuf() interface{} { return new([]byte) }

var indirectPool = sync.Pool{New: makeBuf} // want `New hook is not a func literal`

func roundTrip(m *Message) {
	b := bufPool.Get().(*[]byte)
	bufPool.Put(b)
	msgPool.Put(m) // want `sync.Pool.Put of \*Message`
}

// The delta-encode scratch shape: pooled (R, Q) add batches are slices
// of pointer-free structs, the same doctrine as the histories sort
// scratch above.
type deltaEntry struct {
	R int
	Q ProcessSet
}

var deltaScratch = sync.Pool{New: func() interface{} { return new([]deltaEntry) }}

// A delta batch that embeds its adds slice cannot be pooled: the slice
// header is a pointer, so a recycled batch aliases live adds.
type deltaBatch struct {
	Base, To uint64
	Adds     []deltaEntry
}

var deltaBatchPool = sync.Pool{New: func() interface{} { return new(deltaBatch) }} // want `sync.Pool New returns \*deltaBatch`

// The serve batch codec's decode scratch: client commands are flat
// pointer-free records, so a pooled command slice follows the doctrine.
type command struct {
	Client uint32
	Seq    uint64
	Op     byte
	Key    uint64
	Val    int64
}

var cmdScratch = sync.Pool{New: func() interface{} { return new([]command) }}

// A batch that embeds its command slice cannot be pooled: recycling it
// aliases commands still referenced by an applier's body table.
type cmdBatch struct {
	ID   int
	Cmds []command
}

var cmdBatchPool = sync.Pool{New: func() interface{} { return new(cmdBatch) }} // want `sync.Pool New returns \*cmdBatch`
