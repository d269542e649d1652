// Package serve is the client-facing layer of the replicated log: a
// KV/queue state machine replicated via one nonuniform-consensus instance
// per slot (internal/rsm), fronted by client sessions with exactly-once
// command application.
//
// The package is the deterministic core only. Everything here runs inside
// the automaton step cycle or behind small mutexes, is free of wall time,
// goroutines and ambient randomness (it is on nodeterm's critical list),
// and is shared verbatim by the sim-substrate experiments (E18), the unit
// tests, and cmd/nucd's real TCP serving path. Three pieces:
//
//   - Replica: an automaton wrapping rsm.Log that batches client commands
//     into one consensus value per slot (a Batch, identified in the log by
//     a packed positive int), gossips batch bodies, and feeds decided
//     entries to an Applier. It seals a batch from ingress only when its
//     log has no own batch waiting for a slot (rsm.OwnWaiting), so the
//     log's progress, not a clock, paces batching. The BATCH is the
//     forward: no CMD item leaves a replica, a body names its batch's ID,
//     and the receiving replica hands its log the CMD for that ID where
//     the body arrived. The replica owes the body to its log (rsm.Log.Owe),
//     whose outbox sends it with the first step that sends anything, to
//     every peer at once, riding that step's message to each peer it
//     reaches.
//   - Applier: a per-process external resource (like fd.Sampler) holding
//     the KV/queue Machine, the session dedup table, and the decided-entry
//     cursor. Commands apply in slot order exactly once per (client, seq),
//     no matter how many slots a retried batch was decided into.
//   - Ingress: the mutex-guarded queue cmd/nucd pushes live client writes
//     through; Replica seals what is queued, up to Config.Batch commands,
//     into one batch, queues its ID in the log via rsm.Inject and owes
//     its body to the peers via rsm.Log.Owe.
//
// Consistency: writes are linearizable at commit (slot order is agreed by
// every correct process). Reads come in two modes — read-index reads,
// which snapshot the local decided frontier and wait until the Applier has
// caught up to it (linearizable with respect to everything the serving
// node has acknowledged), and eventually-consistent reads served straight
// from the local machine. Under *nonuniform* consensus a nonuniformly
// faulty replica may briefly serve reads no correct process agrees with
// (the E14 phenomenon); DESIGN.md §11 spells out the trade.
package serve

import (
	"fmt"

	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
)

// Command op codes. Writes (Put, Del, QPush, QPop) travel through the
// replicated log; Get exists for the client protocol and is served by the
// Applier without consuming a slot.
const (
	OpNop   byte = 0
	OpPut   byte = 1
	OpDel   byte = 2
	OpQPush byte = 3
	OpQPop  byte = 4
	OpGet   byte = 5
)

// Reply status codes.
const (
	StatusOK      byte = 0 // applied (or served); Val carries the result
	StatusMissing byte = 1 // key absent or queue empty
	StatusDup     byte = 2 // duplicate suppressed, cached result returned
	StatusRetired byte = 3 // duplicate older than the cached-reply window
)

// Command is one client operation: Seq numbers start at 1 and increase by
// one per command within a client session, which is what the exactly-once
// dedup keys on.
type Command struct {
	Client uint32
	Seq    uint64
	Op     byte
	Key    uint64
	Val    int64
}

// String renders a command for diagnostics.
func (c Command) String() string {
	return fmt.Sprintf("c%d#%d op%d k%d v%d", c.Client, c.Seq, c.Op, c.Key, c.Val)
}

// Batch is the unit of consensus: many client commands decided in one
// slot. The log carries only the packed ID; bodies travel separately in
// BatchPayload gossip and wait in the Applier until their slot decides.
type Batch struct {
	ID   int
	Cmds []Command
}

// BatchID packs (origin process, per-origin batch index) into the positive
// int the rsm log carries as a command. It never collides with rsm.NoOp
// and is unique as long as one origin mints fewer than 2^56 batches.
func BatchID(p model.ProcessID, i int) int {
	id := ((i + 1) << 6) | int(p)
	if id <= 0 {
		panic(fmt.Sprintf("serve: batch id overflow (p=%d i=%d)", p, i))
	}
	return id
}

// BatchOrigin recovers the minting process from a batch ID.
func BatchOrigin(id int) model.ProcessID { return model.ProcessID(id & 63) }

// BatchPayload gossips a batch body so every replica can apply the slot
// that decides its ID. Bodies are immutable once sent.
type BatchPayload struct {
	ID   int
	Cmds []Command
}

// Kind implements model.Payload.
func (BatchPayload) Kind() string { return "BATCH" }

// String implements model.Payload.
func (b BatchPayload) String() string { return fmt.Sprintf("BATCH(%d,%d cmds)", b.ID, len(b.Cmds)) }

// RequestPayload is one client-protocol request frame (cmd/nucd ↔
// cmd/nucload): a single command plus the read mode. It rides the same
// internal/wire codec as the consensus payloads.
type RequestPayload struct {
	Client uint32
	Seq    uint64
	Op     byte
	Key    uint64
	Val    int64
	Lin    bool  // linearizable read-index read (reads only)
	T0     int64 // client send stamp (wall ns); echoed on the reply, 0 when untraced
}

// Kind implements model.Payload.
func (RequestPayload) Kind() string { return "SREQ" }

// String implements model.Payload.
func (r RequestPayload) String() string {
	return fmt.Sprintf("SREQ(c%d#%d op%d)", r.Client, r.Seq, r.Op)
}

// ReplyPayload is the client-protocol response frame.
type ReplyPayload struct {
	Client uint32
	Seq    uint64
	Status byte
	Val    int64
	T0     int64 // request's send stamp echoed back, so the client can match without state
}

// Kind implements model.Payload.
func (ReplyPayload) Kind() string { return "SREP" }

// String implements model.Payload.
func (r ReplyPayload) String() string {
	return fmt.Sprintf("SREP(c%d#%d s%d)", r.Client, r.Seq, r.Status)
}

// NoOpEntry reports whether a decided log value is the consensus no-op.
func NoOpEntry(v int) bool { return v == rsm.NoOp }
