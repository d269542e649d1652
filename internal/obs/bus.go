package obs

import (
	"sync"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// Sink consumes events from a Bus. Emit is called with the bus lock held,
// in a deterministic order on deterministic substrates; it must not call
// back into the bus. Close flushes buffered output; a sink must tolerate
// Emit never being called and Close being called exactly once.
type Sink interface {
	Emit(Event)
	Close() error
}

// msgKey is the model's unique message identity (§2.1): sender plus
// per-sender sequence number.
type msgKey struct {
	from model.ProcessID
	seq  uint64
}

// Bus is the causal event bus of one run. Drivers feed it one call per
// atomic step (OnStep) plus the initial configuration (OnInit) and crash
// notifications (OnCrash); the bus computes the Lamport annotation, derives
// the higher-level events (decisions, round changes, quorum formations,
// emulated detector outputs) from state introspection, updates the attached
// metrics registry and fans the events out to its sinks. It is the run's
// only per-step observer: what a caller wants kept, it attaches a sink for.
//
// A nil *Bus is valid and does nothing. All methods are safe for
// concurrent use: the concurrent substrates emit from one goroutine per
// process.
type Bus struct {
	mu      sync.Mutex
	clock   Clock
	metrics *Registry
	sinks   []Sink

	lamport []uint64          // per-process Lamport clocks
	sendL   map[msgKey]uint64 // Lamport stamp of each in-flight send
	round   []int             // last observed round per process
	roundAt []model.Time      // logical time the round was entered
	decided []bool            // first-decision latch per process

	// Hot-path instruments, resolved once at construction so OnStep pays
	// neither the registry's mutexed get-or-create per event nor the
	// "msgs.sent."+kind concatenation per send (all nil/empty when no
	// registry is attached). sentC is only touched under b.mu.
	cDelivered, cSteps, cCrashes *Counter
	sentC                        map[string]*Counter
}

// NewBus returns a bus stamping events with clock (nil means Logical),
// updating metrics (nil means none) and fanning out to sinks.
func NewBus(clock Clock, metrics *Registry, sinks ...Sink) *Bus {
	if clock == nil {
		clock = Logical{}
	}
	b := &Bus{
		clock:   clock,
		metrics: metrics,
		sinks:   sinks,
		sendL:   make(map[msgKey]uint64),
	}
	if metrics != nil {
		b.cDelivered = metrics.Counter("bus.delivered")
		b.cSteps = metrics.Counter("bus.steps")
		b.cCrashes = metrics.Counter("bus.crashes")
		b.sentC = make(map[string]*Counter)
	}
	return b
}

// SetClock replaces the bus's clock. The concurrent substrates call this
// at run start to inject the wall shim; deterministic paths never do.
func (b *Bus) SetClock(c Clock) {
	if b == nil || c == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = c
}

// grow ensures the per-process tables cover process p.
func (b *Bus) grow(p model.ProcessID) {
	for int(p) >= len(b.lamport) {
		b.lamport = append(b.lamport, 0)
		b.round = append(b.round, 0)
		b.roundAt = append(b.roundAt, 0)
		b.decided = append(b.decided, false)
	}
}

// emit fans one event out to every sink. Callers hold b.mu.
func (b *Bus) emit(ev Event) {
	for _, s := range b.sinks {
		s.Emit(ev)
	}
}

// OnInit records the run's initial configuration: the t = 0 values of the
// emulated detector outputs (§2.9), which no step produces. Drivers call it
// once, before the first step.
func (b *Bus) OnInit(states []model.State) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, st := range states {
		b.emitOutput(0, model.ProcessID(i), 0, st, 0)
	}
}

// emitOutput emits st's emulated detector output, if it has one. Callers
// hold b.mu.
func (b *Bus) emitOutput(t model.Time, p model.ProcessID, l uint64, st model.State, wall int64) {
	if out, ok := st.(model.FDOutput); ok {
		if v := out.EmulatedOutput(); v != nil {
			b.emit(Event{Kind: KindFDOutput, T: t, P: p, L: l, FD: v, Wall: wall})
		}
	}
}

// OnStep records one atomic step of §2.4: process p, at logical time t,
// received m (nil for λ), sampled d (nil when the automaton queries no
// detector), sent the messages in sent, and ended the step in state st.
// The emission order within the step is fixed — Deliver, FDQuery, Step,
// Sends, then the derived EpochChange/QuorumFormed/Decide/FDOutput — so sim
// event logs are byte-identical across runs and worker counts.
func (b *Bus) OnStep(t model.Time, p model.ProcessID, m *model.Message, d model.FDValue, sent []*model.Message, st model.State) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.grow(p)
	wall := b.clock.Now()

	// Lamport: the step is one atomic event; its stamp exceeds the
	// process's previous step and, if the step received a message, the
	// matching send (send-before-receive of §2.4).
	l := b.lamport[p] + 1
	if m != nil {
		if s, ok := b.sendL[msgKey{m.From, m.Seq}]; ok && s+1 > l {
			l = s + 1
		}
	}
	b.lamport[p] = l

	if m != nil {
		delete(b.sendL, msgKey{m.From, m.Seq})
		b.emit(Event{Kind: KindDeliver, T: t, P: p, L: l, From: m.From, Seq: m.Seq, Payload: m.Payload.Kind(), Wall: wall})
		b.add(b.cDelivered, 1)
	}
	if d != nil {
		b.emit(Event{Kind: KindFDQuery, T: t, P: p, L: l, FD: d, Wall: wall})
	}
	b.emit(Event{Kind: KindStep, T: t, P: p, L: l, Value: len(sent), Wall: wall})
	b.add(b.cSteps, 1)
	for _, sm := range sent {
		b.sendL[msgKey{sm.From, sm.Seq}] = l
		b.emit(Event{Kind: KindSend, T: t, P: p, L: l, From: sm.From, To: sm.To, Seq: sm.Seq, Payload: sm.Payload.Kind(), Wall: wall})
		b.countSent(sm.Payload.Kind())
	}

	// Derived events from state introspection: round transitions, quorum
	// completions, decisions, emulated detector outputs.
	if r, ok := model.RoundOf(st); ok && r > b.round[p] {
		b.emit(Event{Kind: KindEpochChange, T: t, P: p, L: l, Value: r, Wall: wall})
		if q, hasQ := fd.QuorumOf(d); hasQ {
			// The round advanced while the module output a quorum: the
			// process's quorum wait (Fig. 5 get_quorum loop) completed.
			b.emit(Event{Kind: KindQuorumFormed, T: t, P: p, L: l, Detail: q.String(), Value: r, Wall: wall})
			b.observe("consensus.quorum_wait_ticks", int64(t-b.roundAt[p]))
		}
		b.round[p] = r
		b.roundAt[p] = t
	}
	if v, ok := model.DecisionOf(st); ok && !b.decided[p] {
		b.decided[p] = true
		b.emit(Event{Kind: KindDecide, T: t, P: p, L: l, Value: v, Wall: wall})
		k, ok := model.DecidedRoundOf(st)
		if !ok {
			k = b.round[p]
		}
		b.observe("consensus.rounds_to_decide", int64(k))
		b.observe("consensus.ticks_to_decide", int64(t))
	}
	b.emitOutput(t, p, l, st, wall)
}

// OnCrash records that process p crashed at logical time t (per the run's
// failure pattern).
func (b *Bus) OnCrash(t model.Time, p model.ProcessID) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.grow(p)
	b.lamport[p]++
	b.emit(Event{Kind: KindCrash, T: t, P: p, L: b.lamport[p], Wall: b.clock.Now()})
	b.add(b.cCrashes, 1)
}

// Close closes every sink, returning the first error.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for _, s := range b.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// add bumps a pre-resolved counter (nil when no registry is attached).
func (b *Bus) add(c *Counter, v int64) {
	if c != nil {
		c.Add(v)
	}
}

// countSent bumps the per-kind send counter, resolving "msgs.sent.<KIND>"
// through the registry only on the kind's first appearance: a map hit on a
// string key allocates nothing, while the concatenation it replaces
// allocated on every send. Callers hold b.mu.
func (b *Bus) countSent(kind string) {
	if b.metrics == nil {
		return
	}
	c := b.sentC[kind]
	if c == nil {
		c = b.metrics.Counter("msgs.sent." + kind)
		b.sentC[kind] = c
	}
	c.Add(1)
}

// observe records a histogram sample, if a registry is attached.
func (b *Bus) observe(name string, v int64) {
	if b.metrics != nil {
		b.metrics.Histogram(name, DefaultBuckets).Observe(v)
	}
}
