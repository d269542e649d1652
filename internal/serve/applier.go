package serve

import (
	"sync"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// Applier consumes one process's decided log entries, in slot order, and
// runs them through the session layer into the state machine. It is the
// process's rsm.EntrySink endpoint and — like the shared fd.Sampler — a
// mutable resource living OUTSIDE the cloned automaton state: sound on
// linear executions (sim.Run, the concurrent substrates), never under
// explore.
//
// The lock covers every field; client-facing callers (cmd/nucd's
// connection goroutines) and the stepping replica contend on it briefly.
// Result callbacks registered by the front end run outside the lock.
type Applier struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever applied advances
	p    model.ProcessID

	machine  *Machine
	sessions *Sessions
	bodies   map[int][]Command // batch id → commands, until compaction
	batchAt  map[int]int       // batch id → first slot it was applied at
	stalled  []logEntry        // decided entries waiting for their body
	frontier int               // entries observed decided (sink calls)
	applied  int               // entries fully applied

	retain  bool  // keep decided values for tests/E18 agreement checks
	decided []int // the retained values
	closed  bool  // Shutdown called: read-index waits stop blocking

	// Per-applier tallies: the obs counters above are shared across a
	// cluster's appliers, so replica-local checks read these instead.
	nCommands, nDups, nBatches int64

	waiters map[waiterKey]func(byte, int64)

	// tracer emits decide/apply span events (nil: tracing off). The obs
	// Tracer stamps wall time only through its injected clock, so the
	// applier itself stays clock-free (nodeterm's obs.Wall ban).
	tracer *obs.Tracer

	cCommands, cDups, cBatches, cDupBatches *obs.Counter
	cNoops, cStalls, cCompactions           *obs.Counter
	gSessions                               *obs.Gauge
	hBatchSize                              *obs.Histogram
}

type logEntry struct {
	slot, v int
	counted bool // stall already counted for this entry
}

type waiterKey struct {
	client uint32
	seq    uint64
}

type notice struct {
	fn     func(byte, int64)
	status byte
	val    int64
}

// batchSizeBuckets frames the serve.apply.batch_size histogram.
var batchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewApplier builds the applier for process p, registering its instruments
// on reg (shared across a cluster's appliers; all instruments are
// commutative, so experiment metrics stay worker-count-independent).
func NewApplier(p model.ProcessID, reg *obs.Registry, retain bool) *Applier {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a := &Applier{
		p:           p,
		machine:     NewMachine(),
		sessions:    NewSessions(),
		bodies:      make(map[int][]Command),
		batchAt:     make(map[int]int),
		waiters:     make(map[waiterKey]func(byte, int64)),
		retain:      retain,
		cCommands:   reg.Counter("serve.apply.commands"),
		cDups:       reg.Counter("serve.apply.dup_commands"),
		cBatches:    reg.Counter("serve.apply.batches"),
		cDupBatches: reg.Counter("serve.apply.dup_batches"),
		cNoops:      reg.Counter("serve.apply.noops"),
		cStalls:     reg.Counter("serve.apply.stalls"),
		cCompactions: reg.Counter(
			"serve.sessions.compactions"),
		gSessions:  reg.Gauge("serve.sessions.live"),
		hBatchSize: reg.Histogram("serve.apply.batch_size", batchSizeBuckets),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// WithTracer attaches the span tracer (nil keeps tracing off).
func (a *Applier) WithTracer(t *obs.Tracer) *Applier {
	a.tracer = t
	return a
}

// OnEntryRound implements rsm.RoundSink: the slot's decide event, with the
// round this process decided the slot in. Batch-level — the
// decided value IS the batch ID — so one decide span fans out to every
// member command through the batch ID the inject/apply spans carry.
func (a *Applier) OnEntryRound(_ model.ProcessID, slot, v, round int) {
	if !NoOpEntry(v) {
		a.tracer.Span(obs.SpanEvent{Stage: obs.StageDecide, P: int(a.p), Batch: v, Slot: slot, N: round})
	}
}

// PutBody registers a batch body (from local ingress or BATCH gossip) and
// unstalls any decided entries that were waiting for it.
func (a *Applier) PutBody(id int, cmds []Command) {
	for _, nt := range a.putBodyLocked(id, cmds) {
		nt.fn(nt.status, nt.val)
	}
}

func (a *Applier) putBodyLocked(id int, cmds []Command) []notice {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.bodies[id]; dup {
		return nil
	}
	a.bodies[id] = cmds
	return a.drainLocked()
}

// OnEntry implements rsm.EntrySink: one decided value, in slot order.
func (a *Applier) OnEntry(_ model.ProcessID, slot, v int) {
	for _, nt := range a.onEntryLocked(slot, v) {
		nt.fn(nt.status, nt.val)
	}
}

func (a *Applier) onEntryLocked(slot, v int) []notice {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frontier++
	if a.retain {
		a.decided = append(a.decided, v)
	}
	a.stalled = append(a.stalled, logEntry{slot: slot, v: v})
	return a.drainLocked()
}

// drainLocked applies the stalled prefix whose bodies are present. Entries
// must apply in slot order, so the first missing body blocks the rest.
func (a *Applier) drainLocked() []notice {
	var out []notice
	for len(a.stalled) > 0 {
		e := a.stalled[0]
		if !NoOpEntry(e.v) {
			if _, ok := a.bodies[e.v]; !ok {
				// A batch applied below the retirement floor can lose its
				// body to compaction and still decide again in a later slot
				// (a pipelined re-proposal in flight at compaction time).
				// Every one of its commands is a session duplicate, so the
				// entry needs no body — anything else is a genuine stall.
				if _, applied := a.batchAt[e.v]; applied {
					a.cDupBatches.Add(1)
					a.stalled = a.stalled[1:]
					a.applied++
					continue
				}
				if !a.stalled[0].counted {
					a.stalled[0].counted = true
					a.cStalls.Add(1)
				}
				break
			}
		}
		a.stalled = a.stalled[1:]
		out = append(out, a.applyLocked(e)...)
		a.applied++
	}
	if len(out) > 0 || a.applied > 0 {
		a.cond.Broadcast()
	}
	return out
}

// applyLocked runs one decided entry through sessions into the machine.
func (a *Applier) applyLocked(e logEntry) []notice {
	if NoOpEntry(e.v) {
		a.cNoops.Add(1)
		return nil
	}
	cmds := a.bodies[e.v]
	if _, dup := a.batchAt[e.v]; dup {
		// The same batch decided in a second slot (a pipelined re-proposal
		// raced its own decision): every command is a session duplicate.
		a.cDupBatches.Add(1)
	} else {
		a.batchAt[e.v] = e.slot
		a.cBatches.Add(1)
		a.nBatches++
		a.hBatchSize.Observe(int64(len(cmds)))
	}
	var out []notice
	for _, c := range cmds {
		var status byte
		var val int64
		if a.sessions.Applied(c.Client, c.Seq) {
			a.cDups.Add(1)
			a.nDups++
			if r, hit := a.sessions.Reply(c.Client, c.Seq); hit {
				status, val = r.status, r.val
			} else {
				status = StatusRetired
			}
		} else {
			val, status = a.machine.Apply(c)
			a.sessions.Record(c.Client, c.Seq, e.slot, status, val)
			a.cCommands.Add(1)
			a.nCommands++
			a.tracer.Span(obs.SpanEvent{
				Stage: obs.StageApply, P: int(a.p), Client: c.Client, Seq: c.Seq,
				Batch: e.v, Slot: e.slot, N: int(status),
			})
		}
		key := waiterKey{client: c.Client, seq: c.Seq}
		if fn, ok := a.waiters[key]; ok {
			delete(a.waiters, key)
			out = append(out, notice{fn: fn, status: status, val: val})
		}
	}
	a.gSessions.Max(int64(a.sessions.Len()))
	return out
}

// Compact releases state no future entry can need: batch bodies decided
// below the retirement floor (every replica appended those slots, and
// decided values leave every proposal pool — see rsm.FloorOf), and the
// cached replies of sessions idle since before the floor. Exactly-once
// bookkeeping — sessions and the batchAt table (two ints per batch, and
// the dup-after-compaction sentinel in drainLocked) — is never dropped.
func (a *Applier) Compact(floor int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, slot := range a.batchAt {
		if slot < floor {
			delete(a.bodies, id)
		}
	}
	a.cCompactions.Add(int64(a.sessions.Compact(floor)))
}

// RegisterWaiter arranges fn to run (outside the lock) with the result of
// (client, seq) once it applies; if it already has, fn runs immediately
// with the cached result (StatusRetired when the cache aged out).
func (a *Applier) RegisterWaiter(client uint32, seq uint64, fn func(status byte, val int64)) {
	//lint:allow locksafe unlocked on both arms: fn must run outside the lock
	a.mu.Lock()
	if a.sessions.Applied(client, seq) {
		r, hit := a.sessions.Reply(client, seq)
		a.mu.Unlock()
		if hit {
			fn(r.status, r.val)
		} else {
			fn(StatusRetired, 0)
		}
		return
	}
	a.waiters[waiterKey{client: client, seq: seq}] = fn
	a.mu.Unlock()
}

// ReadIndex snapshots the local decided frontier: the index a
// linearizable read must wait for.
func (a *Applier) ReadIndex() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.frontier
}

// WaitApplied blocks until the applier has applied at least target
// entries (or Shutdown is called). Concurrent-substrate callers only
// (cmd/nucd conn goroutines); on the sim substrate nothing else can
// advance the applier while the caller waits.
func (a *Applier) WaitApplied(target int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.applied < target && !a.closed {
		a.cond.Wait()
	}
}

// Shutdown unblocks read-index waits permanently. Once the cluster
// drivers halt the replicas and close their links, a decided-but-stalled
// frontier entry can never receive its batch body, so a read-index read
// snapshot taken just before the halt would otherwise wait forever; after
// Shutdown such reads degrade to plain local reads instead of deadlocking
// their clients. Writes are unaffected — every acknowledged write applied
// before the halt by definition.
func (a *Applier) Shutdown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.cond.Broadcast()
}

// Get serves an eventually-consistent read from the local machine.
func (a *Applier) Get(key uint64) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.machine.Get(key)
}

// GetLin serves a read-index read: snapshot the decided frontier, wait
// until it is applied, then read. Linearizable with respect to every
// write this node has acknowledged. After Shutdown the wait is waived
// (the halted cluster can no longer deliver stalled bodies) and the read
// is only as fresh as a plain Get.
func (a *Applier) GetLin(key uint64) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	target := a.frontier
	for a.applied < target && !a.closed {
		a.cond.Wait()
	}
	return a.machine.Get(key)
}

// Stats is a consistent snapshot of the applier's progress.
type Stats struct {
	Frontier   int // entries observed decided
	Applied    int // entries applied
	Commands   int64
	Dups       int64
	Batches    int64
	Stalled    int // entries currently waiting for a body
	Sessions   int
	ReplyCache int // cached replies across all live sessions
}

// StatsOf returns the applier's current stats.
func (a *Applier) StatsOf() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Frontier:   a.frontier,
		Applied:    a.applied,
		Commands:   a.nCommands,
		Dups:       a.nDups,
		Batches:    a.nBatches,
		Stalled:    len(a.stalled),
		Sessions:   a.sessions.Len(),
		ReplyCache: a.sessions.CachedReplies(),
	}
}

// Commands returns how many distinct commands this applier has applied.
func (a *Applier) Commands() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nCommands
}

// Decided returns the retained decided values (retain mode only).
func (a *Applier) Decided() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.decided...)
}

// Checksum digests the machine state for cross-replica agreement checks.
func (a *Applier) Checksum() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.machine.Checksum()
}
