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
	// "msgs.sent."+kind concatenation per send (nil, and sentC empty, when
	// no registry is attached). sentC is only touched under b.mu.
	cDelivered, cSteps, cCrashes *Counter
	sentC                        map[string]*Counter
}

// NewBus returns a bus stamping events with clock (nil means Logical),
// updating metrics (nil means none) and fanning out to sinks.
func NewBus(clock Clock, metrics *Registry, sinks ...Sink) *Bus {
	if clock == nil {
		clock = Logical{}
	}
	return &Bus{
		clock:      clock,
		metrics:    metrics,
		sinks:      sinks,
		sendL:      make(map[msgKey]uint64),
		cDelivered: metrics.Counter("bus.delivered"),
		cSteps:     metrics.Counter("bus.steps"),
		cCrashes:   metrics.Counter("bus.crashes"),
		sentC:      make(map[string]*Counter),
	}
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
// received the messages in taken (none for λ; several when the driver
// joined a link's pending messages into one receipt, model.Merger),
// sampled d (nil when the automaton queries no detector), sent the
// messages in sent, and ended the step in state st. Each taken message
// gets its own Deliver, and the step's Lamport stamp exceeds every one of
// their sends. The emission order within the step is fixed — Deliver,
// FDQuery, Step, Sends, then the derived
// EpochChange/QuorumFormed/Decide/FDOutput — so sim event logs are
// byte-identical across runs and worker counts.
func (b *Bus) OnStep(t model.Time, p model.ProcessID, taken []*model.Message, d model.FDValue, sent []*model.Message, st model.State) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.grow(p)
	wall := b.clock.Now()

	// Lamport: the step is one atomic event; its stamp exceeds the
	// process's previous step and the send of every message the step
	// received (send-before-receive of §2.4).
	l := b.lamport[p] + 1
	for _, m := range taken {
		if s, ok := b.sendL[msgKey{m.From, m.Seq}]; ok && s+1 > l {
			l = s + 1
		}
	}
	b.lamport[p] = l

	for _, m := range taken {
		delete(b.sendL, msgKey{m.From, m.Seq})
		b.emit(Event{Kind: KindDeliver, T: t, P: p, L: l, From: m.From, Seq: m.Seq, Payload: m.Payload.Kind(), Wall: wall})
		b.cDelivered.Add(1)
	}
	if d != nil {
		b.emit(Event{Kind: KindFDQuery, T: t, P: p, L: l, FD: d, Wall: wall})
	}
	b.emit(Event{Kind: KindStep, T: t, P: p, L: l, Value: len(sent), Wall: wall})
	b.cSteps.Add(1)
	b.emitSends(t, p, l, sent, wall)

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

// OnSend records messages process p sends outside a step, at logical time
// t: sends its steps made and its driver held (model.Merger), let out when
// the process stops or waits. They are stamped after p's last step, so
// their receipts still follow them.
func (b *Bus) OnSend(t model.Time, p model.ProcessID, sent []*model.Message) {
	if b == nil || len(sent) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.grow(p)
	b.lamport[p]++
	b.emitSends(t, p, b.lamport[p], sent, b.clock.Now())
}

// emitSends stamps each message of sent with Lamport time l and emits its
// Send. Callers hold b.mu.
func (b *Bus) emitSends(t model.Time, p model.ProcessID, l uint64, sent []*model.Message, wall int64) {
	for _, sm := range sent {
		b.sendL[msgKey{sm.From, sm.Seq}] = l
		b.emit(Event{Kind: KindSend, T: t, P: p, L: l, From: sm.From, To: sm.To, Seq: sm.Seq, Payload: sm.Payload.Kind(), Wall: wall})
		b.countSent(sm.Payload.Kind())
	}
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
	b.cCrashes.Add(1)
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

// countSent bumps the per-kind send counter, resolving "msgs.sent.<KIND>"
// through the registry only on the kind's first appearance: a map hit on a
// string key allocates nothing, while the concatenation it replaces
// allocated on every send; without a registry it builds no name at all.
// Callers hold b.mu.
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

// observe records a histogram sample.
func (b *Bus) observe(name string, v int64) {
	b.metrics.Histogram(name, DefaultBuckets).Observe(v)
}
