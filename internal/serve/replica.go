package serve

import (
	"fmt"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
)

// Config assembles a serving cluster.
type Config struct {
	N        int       // processes
	Slots    int       // log capacity (consensus instances)
	Pipeline int       // slot instances in flight (rsm.Log.WithPipeline; 0 keeps the window of 1)
	Workload [][]Batch // initial batches per process (IDs assigned here)
	Target   int       // total distinct commands; reaching it is the stop signal (0: log-full)
	// Batch caps the commands one sealed ingress batch takes: the oldest
	// pushed group plus whole following groups up to Batch in total. 0
	// seals one pushed group per batch, whatever its size.
	Batch int
	// Correct is the set of processes that never crash (pattern.Correct()).
	// The target decision fires only when every correct replica has applied
	// Target commands: a replica deciding on its own progress would be
	// halted by the cluster drivers while laggards still need its messages
	// (and possibly its Ω leadership). Empty means all N are correct.
	Correct  model.ProcessSet
	Registry *obs.Registry // the appliers' instruments; nil leaves the run unmetered
	Retain   bool          // appliers keep decided values (tests, agreement checks)
	// Tracer emits request span events from the deterministic core: inject
	// on ingress drain, decide per slot, apply per command. nil: off. The
	// clock lives inside the Tracer (hosts inject obs.Wall; sims keep the
	// Logical default), so this package never touches wall time itself.
	Tracer *obs.Tracer
}

// Cluster wires the serving stack for one run: a Replica automaton over a
// shared-store rsm log, one Applier and one Ingress per process.
type Cluster struct {
	rep      *Replica
	appliers []*Applier
	ingress  []*Ingress
	log      *rsm.Log
}

// NewCluster builds the cluster. The workload's batch IDs are minted here
// — one authority — and each body is pre-registered with its origin's
// applier only; the other replicas learn it from BATCH gossip, so body
// dissemination is measured traffic, not construction-time cheating. The
// log is built without the batches: each replica injects its own in
// InitState, so their bodies are their only forward.
func NewCluster(cfg Config) *Cluster {
	if cfg.N < 2 {
		panic("serve: cluster needs at least 2 processes")
	}
	initial := make([][]Batch, cfg.N)
	for p := 0; p < cfg.N && p < len(cfg.Workload); p++ {
		for i, b := range cfg.Workload[p] {
			b.ID = BatchID(model.ProcessID(p), i)
			initial[p] = append(initial[p], b)
		}
	}
	c := &Cluster{
		appliers: make([]*Applier, cfg.N),
		ingress:  make([]*Ingress, cfg.N),
	}
	for p := 0; p < cfg.N; p++ {
		c.appliers[p] = NewApplier(model.ProcessID(p), cfg.Registry, cfg.Retain).WithTracer(cfg.Tracer)
		c.ingress[p] = &Ingress{}
		for _, b := range initial[p] {
			c.appliers[p].PutBody(b.ID, b.Cmds)
		}
	}
	c.log = rsm.NewLog(make([][]int, cfg.N), cfg.Slots).WithPipeline(cfg.Pipeline)
	correct := cfg.Correct
	if correct.IsEmpty() {
		correct = model.FullSet(cfg.N)
	}
	c.rep = &Replica{
		n:        cfg.N,
		target:   cfg.Target,
		correct:  correct,
		log:      c.log,
		appliers: c.appliers,
		ingress:  c.ingress,
		batch:    cfg.Batch,
		initial:  initial,
		tracer:   cfg.Tracer,
	}
	return c
}

// Automaton returns the cluster's replica automaton.
func (c *Cluster) Automaton() *Replica { return c.rep }

// Applier returns process p's applier.
func (c *Cluster) Applier(p model.ProcessID) *Applier { return c.appliers[int(p)] }

// Ingress returns process p's ingress queue.
func (c *Cluster) Ingress(p model.ProcessID) *Ingress { return c.ingress[int(p)] }

// Log returns the underlying rsm automaton (to attach a shared sampler).
func (c *Cluster) Log() *rsm.Log { return c.log }

// Replica is the serving automaton: rsm.Log plus batch-body gossip,
// ingress draining and applier advancement. Like the sampler it relies
// on per-process external resources (its appliers), so it runs on linear
// executions only (sim.Run and the concurrent substrates; never explore).
type Replica struct {
	n        int
	target   int
	correct  model.ProcessSet
	log      *rsm.Log
	appliers []*Applier
	ingress  []*Ingress
	batch    int // Config.Batch
	initial  [][]Batch
	tracer   *obs.Tracer
}

// Name implements model.Automaton.
func (r *Replica) Name() string { return "serve∘" + r.log.Name() }

// N implements model.Automaton.
func (r *Replica) N() int { return r.n }

// replicaState wraps the log state with the serving layer's bookkeeping.
type replicaState struct {
	r         *Replica
	p         model.ProcessID
	inner     model.State
	nextBatch int // per-origin mint counter for ingress batches
	lastFloor int // retirement floor already compacted to
}

// CloneState implements model.State.
func (s *replicaState) CloneState() model.State {
	c := *s
	c.inner = s.inner.CloneState()
	return &c
}

// Decision implements model.Decider: with a target, the replica is done
// once EVERY correct replica's applier has applied that many distinct
// commands — the cluster-wide minimum, readable here because the appliers
// are shared per-run resources. Deciding on local progress alone would be
// wrong: the concurrent cluster drivers halt a decided process and close
// its links, and laggards may still need its proposals (or its Ω
// leadership) to finish the remaining slots. Without a target the replica
// follows the log's own log-full decision.
func (s *replicaState) Decision() (int, bool) {
	if s.r.target > 0 {
		low := int64(1<<62 - 1)
		s.r.correct.ForEach(func(p model.ProcessID) {
			if c := s.r.appliers[int(p)].Commands(); c < low {
				low = c
			}
		})
		if low >= int64(s.r.target) {
			return int(low), true
		}
		return 0, false
	}
	return model.DecisionOf(s.inner)
}

// InitState implements model.Automaton: the process's initial batches are
// injected as its log state is built, so the first slots propose them, and
// their bodies are owed to every peer like a sealed batch's.
func (r *Replica) InitState(p model.ProcessID) model.State {
	initial := r.initial[int(p)]
	ids := make([]int, len(initial))
	for i, b := range initial {
		ids[i] = b.ID
	}
	st := &replicaState{
		r:         r,
		p:         p,
		inner:     r.log.InitStateWith(p, ids...),
		nextBatch: len(initial),
	}
	for _, b := range initial {
		st.owe(b.ID, b.Cmds)
	}
	return st
}

// owe hands the log the body of a batch this process injected into it: the
// body is the batch's only forward, and the log's outbox sends it to every
// peer with the first step that sends anything (rsm.Log.Owe).
func (st *replicaState) owe(id int, cmds []Command) {
	st.inner = st.r.log.Owe(st.inner, BatchPayload{ID: id, Cmds: cmds})
	st.r.spans(obs.StageInject, st.p, id, cmds)
}

// Step implements model.Automaton.
func (r *Replica) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*replicaState)

	// Serving-layer payloads are consumed here; everything else belongs to
	// the log (which panics on kinds it does not know — keep it that way).
	fwd := m
	if m != nil {
		switch pl := m.Payload.(type) {
		case BatchPayload:
			fwd = r.takeBodies(p, m, rsm.Bundle{pl})
		case rsm.Bundle:
			fwd = r.takeBodies(p, m, pl)
		}
	}

	// Seal a batch when the log is free: once no own batch waits for a
	// slot, take the oldest ingress groups, mint the batch's ID, register
	// its body, inject the ID into the log's pending queue and owe the body
	// to the peers through the log. This is the only place an ingress batch is sealed, and
	// the log's progress, not a clock, decides when.
	if !rsm.OwnWaiting(st.inner) {
		if cmds := r.ingress[int(p)].seal(r.batch); cmds != nil {
			id := BatchID(p, st.nextBatch)
			st.nextBatch++
			r.spans(obs.StageSeal, p, id, cmds)
			r.appliers[int(p)].PutBody(id, cmds)
			st.inner = r.log.Inject(st.inner, id)
			st.owe(id, cmds)
		}
	}

	ns, sends := r.log.Step(p, st.inner, fwd, d)
	st.inner = ns

	// Hand the applier what the step appended, and keep none of it: the log
	// state stays O(window). The decide span goes out before the applies
	// that causally follow it.
	ap := r.appliers[int(p)]
	for _, e := range rsm.TakeEntries(ns) {
		ap.OnEntryRound(p, e.Slot, e.V, e.Round)
		ap.OnEntry(p, e.Slot, e.V)
	}

	// Compact the applier when the retirement floor advances.
	if floor := rsm.FloorOf(ns); floor > st.lastFloor {
		st.lastFloor = floor
		ap.Compact(floor)
	}
	return st, sends
}

// Idle implements model.Idler: a λ-step would seal nothing — ingress is
// empty, or an own batch still waits for a slot — and the log's own λ-step
// would change nothing (rsm.Log.Idle).
func (r *Replica) Idle(p model.ProcessID, s model.State, d model.FDValue) bool {
	st := s.(*replicaState)
	if !rsm.OwnWaiting(st.inner) && r.ingress[int(p)].Len() > 0 {
		return false
	}
	return r.log.Idle(p, st.inner, d)
}

// Merge implements model.Merger as the log does (rsm.Log.Merge): a BATCH
// body is one more item, and Step takes a bundle's bodies at their places.
func (r *Replica) Merge(a, b model.Payload) model.Payload { return r.log.Merge(a, b) }

// takeBodies stores the batch bodies a message carries and returns what is
// left of it for the log: each body becomes the CMD forwarding its batch's
// ID, at the body's place, as if the sender's log had forwarded the ID
// there. m itself is returned if it carries no body.
func (r *Replica) takeBodies(p model.ProcessID, m *model.Message, b rsm.Bundle) *model.Message {
	var rest rsm.Bundle
	for i, pl := range b {
		bp, ok := pl.(BatchPayload)
		if !ok {
			continue
		}
		if rest == nil {
			rest = append(make(rsm.Bundle, 0, len(b)), b...)
		}
		r.appliers[int(p)].PutBody(bp.ID, bp.Cmds)
		rest[i] = rsm.CommandPayload{Cmd: bp.ID}
	}
	if rest == nil {
		return m
	}
	fwd := *m
	fwd.Payload = rest
	if len(rest) == 1 {
		fwd.Payload = rest[0]
	}
	return &fwd
}

// spans emits one span of the given stage per member command of batch
// id: seal when the batch is taken from ingress, inject when its ID enters
// the log — the join point that later lets the batch-level decide span fan
// out to its members.
func (r *Replica) spans(stage string, p model.ProcessID, id int, cmds []Command) {
	if r.tracer == nil {
		return
	}
	for _, c := range cmds {
		r.tracer.Span(obs.SpanEvent{
			Stage: stage, P: int(p), Client: c.Client, Seq: c.Seq,
			Batch: id, Slot: -1, N: len(cmds),
		})
	}
}

// DebugState renders a replica state for diagnostics.
func DebugState(s model.State) string {
	st, ok := s.(*replicaState)
	if !ok {
		return fmt.Sprintf("%T", s)
	}
	stats := st.r.appliers[int(st.p)].StatsOf()
	return fmt.Sprintf("serve{applied=%d/%d cmds=%d dups=%d stalled=%d} %s",
		stats.Applied, stats.Frontier, stats.Commands, stats.Dups, stats.Stalled, rsm.DebugState(st.inner))
}
