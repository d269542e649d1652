// Package rsm builds a replicated log — the classic application the
// paper's introduction motivates ("consensus ... lies at the heart of many
// important problems in fault-tolerant distributed computing") — on top of
// A_nuc: one nonuniform consensus instance per log slot.
//
// Each process has a queue of commands it wants appended. For every slot it
// proposes its next unappended command (or a no-op) and runs A_nuc; the
// decided value becomes the slot's entry at every correct process, so
// correct logs are identical prefix-by-prefix (per-slot nonuniform
// agreement).
//
// Two design points are forced by *nonuniform* consensus specifically:
//
//   - No decided-value gossip. Uniform SMR broadcasts DECIDED(slot, v) so
//     laggards skip ahead — but a nonuniformly-faulty process may have
//     decided a value no correct process decided (experiment E14 measures
//     this happening in ~38% of adversarial runs), so adopting an announced
//     decision would break agreement among the correct. Laggards must run
//     their own instance to completion.
//   - Slot instances stay alive after deciding. A_nuc's termination
//     argument assumes correct processes keep taking steps; a process that
//     halted its instance upon deciding could strand a laggard waiting for
//     the stable leader's next-round message. A decided instance therefore
//     keeps stepping — pumped round-robin with the other awake ones — for
//     as long as some process that has not passed the slot could be
//     waiting on it, and goes quiet once it is a round ahead of everything
//     heard from every such process: everything it could be asked for is
//     sent, except the LEAD of the round it has just entered, which nobody
//     has asked for and which the log holds back (see quiet, stepInstance).
//     A quiet instance takes no steps, wakes — held LEAD out first — when
//     such a process is heard reaching its round, and costs nothing in
//     between: a slot decided in round 1 costs one round of traffic, and a
//     crashed process, whose progress never moves, does not keep every
//     later slot cycling for ever.
//
// Retirement is still possible — safely — through progress gossip: once
// every process is known to have passed a slot, its instance is discarded.
//
// The quorum histories H_p (Fig. 5) are kept once per process, not once
// per slot instance: every instance of a process reads and writes the one
// versioned store in its log state, and LEAD/PROP carry deltas against
// what the destination was last sent instead of inline copies (shared.go).
// That is the only history plumbing the log has; A_nuc's own per-state
// histories and inline Hist are for the standalone automaton.
//
// What Fig. 4's SAW/ACK handshake establishes — every member of a quorum Q
// holds (p, Q) in its history — is likewise a fact about the per-process
// store, not about one instance, so it is recorded once per process too:
// a slot instance opened after every member of Q acknowledged starts with Q
// already seen and can decide in round 1 (aware.go).
package rsm

import (
	"fmt"
	"sort"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// NoOp is proposed by processes with empty command queues; it never enters
// the replicated log's visible command stream.
const NoOp = -1

// SlotPayload wraps a consensus payload with its slot number.
type SlotPayload struct {
	Slot  int
	Inner model.Payload
}

// Kind implements model.Payload.
func (p SlotPayload) Kind() string { return p.Inner.Kind() }

// String implements model.Payload.
func (p SlotPayload) String() string { return fmt.Sprintf("s%d/%s", p.Slot, p.Inner) }

// CommandPayload forwards a client command to every replica: leader-based
// consensus decides the leader's proposal, so a command only lands once the
// current leader knows about it. Replicas with empty queues re-propose
// outstanding forwarded commands instead of no-ops.
type CommandPayload struct {
	Cmd int
}

// Kind implements model.Payload.
func (CommandPayload) Kind() string { return "CMD" }

// String implements model.Payload.
func (c CommandPayload) String() string { return fmt.Sprintf("CMD(%d)", c.Cmd) }

// ProgressPayload announces that the sender has decided every slot below
// Slot; it drives retirement of old instances.
type ProgressPayload struct {
	Slot int
}

// Kind implements model.Payload.
func (ProgressPayload) Kind() string { return "PRGR" }

// String implements model.Payload.
func (p ProgressPayload) String() string { return fmt.Sprintf("PRGR(%d)", p.Slot) }

// SupersedesOlder implements model.SupersededPayload: progress is monotone.
func (ProgressPayload) SupersedesOlder() {}

// Log is the replicated-log automaton. Drive it with (Ω, Σν+) pair
// histories, like A_nuc itself.
type Log struct {
	n     int
	cmds  [][]int // cmds[p]: commands process p wants appended
	slots int     // stop appending after this many slots
	inner *consensus.ANuc

	metrics *logMetrics // pre-resolved obs instruments; nil if unmetered
	window  int         // in-flight slot instances, >= 1 (see WithPipeline)
	sink    EntrySink   // decided entries leave the state; nil keeps them
}

// EntrySink receives decided entries the moment a process appends them,
// in slot order per process. Sink mode keeps the automaton state O(window)
// instead of O(log length): entries are not retained in logState, so
// neither its memory nor a fork of it scales with how much has been
// decided. The sink is a per-process external resource (like the shared
// fd.Sampler): it is only sound on linear executions — sim.Run and the
// concurrent substrates — never under explore, which branches states.
type EntrySink interface {
	OnEntry(p model.ProcessID, slot int, v int)
}

// RoundSink is an optional EntrySink extension: sinks that also implement
// it additionally learn how many A_nuc rounds the slot's instance had
// reached when this process observed the decision — the per-slot consensus
// cost a tracing pipeline attributes to every command in the slot. Round
// counts are per-process observations (a laggard sees a later round than
// the process that drove the decision), which is exactly what a span
// emitted by that process should carry.
type RoundSink interface {
	OnEntryRound(p model.ProcessID, slot int, v int, round int)
}

// WithPipeline widens the window of in-flight slot instances to k: slots
// [frontier, frontier+k) all run A_nuc concurrently, and each outer step
// advances one of them round-robin, so the per-step send budget — and
// therefore msgs/slot — stays flat as k grows. Decisions can land out of
// order; entries are still appended in slot order, and a command decided
// in two slots (possible when a re-proposal races its own decision) is the
// serving layer's dedup problem. A new log has window 1 — slot k+1 opens
// when slot k is appended — and a k at or below the current window leaves
// it alone.
func (a *Log) WithPipeline(k int) *Log {
	if k > a.window {
		a.window = k
	}
	return a
}

// WithEntrySink routes appended entries to sink instead of retaining them
// in the state. See EntrySink for the linear-execution restriction.
func (a *Log) WithEntrySink(sink EntrySink) *Log {
	if sink == nil {
		panic("rsm: nil entry sink")
	}
	a.sink = sink
	return a
}

// NewLog returns the replicated-log automaton: process p wants cmds[p]
// appended, and the log closes after slots entries.
func NewLog(cmds [][]int, slots int) *Log {
	n := len(cmds)
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("rsm: invalid system size %d", n))
	}
	if slots <= 0 {
		panic("rsm: slots must be positive")
	}
	cp := make([][]int, n)
	for i, c := range cmds {
		cp[i] = append([]int(nil), c...)
	}
	return &Log{n: n, cmds: cp, slots: slots, window: 1, inner: consensus.NewANuc(make([]int, n))}
}

// Name implements model.Automaton.
func (a *Log) Name() string { return "RSM∘A_nuc" }

// N implements model.Automaton.
func (a *Log) N() int { return a.n }

// logState is one process's replicated-log state.
type logState struct {
	p       model.ProcessID
	pending []int // own commands not yet appended
	known   []int // forwarded commands from others, not yet appended
	slot    int   // frontier: lowest slot not yet appended
	slots   int   // total slots in the log
	entries []int // the log: decided values per slot

	announced bool                // own commands forwarded to the others
	instances map[int]model.State // live slot instances (current and older)
	parked    map[int][]parkedMsg // messages for slots not yet opened here
	progress  []int               // known progress of every process
	pump      int                 // round-robin cursor over awake older instances
	appended  int                 // entries appended (== len(entries) unless sinking)

	win []windowSlot // in-flight slots: win[i] is slot+i, len == Log.window
	rr  int          // round-robin cursor over in-flight instances

	// Quiet gating of decided instances (see quiet). heard[slot][q] is
	// the highest A_nuc round of any slot message delivered from q; a row is
	// allocated on the slot's first such message and dropped with the
	// instance. awake lists, ascending, the decided live slots that still
	// step: every other decided live slot is quiet. held[slot] is the LEAD
	// broadcast of the round a quiet instance sits in, as A_nuc emitted it
	// (not yet slot-tagged or delta-encoded): withheld until the instance
	// wakes (see stepInstance), dropped with the instance.
	heard map[int][]int
	awake []int
	held  map[int][]model.Send
	floor int // min(progress) as of the last retire: every slot below it is gone

	// The process's quorum histories H_p and their delta transport (see
	// shared.go): one store read and written by every live instance.
	store      *sharedStore
	sentVer    []uint64 // per destination: store version last shipped there
	appliedVer []uint64 // per sender: that sender's version applied through

	// The awareness record beside the store (see aware.go): for every quorum
	// Q this process has announced with SAW, per member the smallest stamp
	// among its ACKs (unacked if none). Nil until the first ACK arrives.
	aware map[model.ProcessSet][]int
}

// windowSlot is the log's bookkeeping for one in-flight slot. It sits
// beside the slot's entry in instances: a slot's instance is opened with
// proposal v (slotOpen), harvest later swaps v for the decided value
// (slotDecided), and the entry leaves the window when the frontier passes.
type windowSlot struct {
	state slotState
	v     int // slotOpen: own proposal; slotDecided: the decision
	round int // slotDecided: A_nuc round observed at harvest
}

type slotState uint8

const (
	slotUnopened slotState = iota // no instance yet (or beyond the log's end)
	slotOpen                      // running, no decision harvested
	slotDecided                   // decided out of order, awaiting the frontier
)

// parkedMsg is a message that arrived for a slot whose instance this
// process has not opened yet. A_nuc's liveness assumes reliable links: a
// process that misses, say, the stable leader's round-k LEAD message waits
// for it forever — the sender transmits each phase message exactly once.
// Lazily opened slot instances would violate that assumption if arrivals
// before the open were dropped, so they are parked instead and replayed,
// in arrival order, the moment the instance opens (see replayParked). The
// payload is stored post-delta-resolution (applyIncoming runs at arrival),
// so replay never re-applies a history delta.
type parkedMsg struct {
	from model.ProcessID
	seq  uint64
	pl   model.Payload
}

// CloneState implements model.State: the fork of a log state. Step and
// Inject never call it — they mutate the state they are handed.
func (s *logState) CloneState() model.State {
	c := *s
	c.pending = append([]int(nil), s.pending...)
	c.known = append([]int(nil), s.known...)
	c.entries = append([]int(nil), s.entries...)
	c.progress = append([]int(nil), s.progress...)
	if s.parked != nil {
		c.parked = make(map[int][]parkedMsg, len(s.parked))
		for k, v := range s.parked {
			c.parked[k] = append([]parkedMsg(nil), v...)
		}
	}
	// Clone the shared store ONCE, then rebind every cloned instance: the
	// instances' own CloneStore is identity for shared stores.
	c.store = s.store.clone()
	c.sentVer = append([]uint64(nil), s.sentVer...)
	c.appliedVer = append([]uint64(nil), s.appliedVer...)
	c.win = append([]windowSlot(nil), s.win...)
	c.awake = append([]int(nil), s.awake...)
	if s.heard != nil {
		c.heard = make(map[int][]int, len(s.heard))
		for k, v := range s.heard {
			c.heard[k] = append([]int(nil), v...)
		}
	}
	if s.held != nil {
		c.held = make(map[int][]model.Send, len(s.held))
		for k, v := range s.held {
			c.held[k] = append([]model.Send(nil), v...)
		}
	}
	if s.aware != nil {
		c.aware = make(map[model.ProcessSet][]int, len(s.aware))
		for k, v := range s.aware {
			c.aware[k] = append([]int(nil), v...)
		}
	}
	c.instances = make(map[int]model.State, len(s.instances))
	for k, v := range s.instances {
		inst := v.CloneState()
		inst.(consensus.StoreBound).BindStore(c.store)
		c.instances[k] = inst
	}
	return &c
}

// Entries returns the decided log so far.
func (s *logState) Entries() []int { return append([]int(nil), s.entries...) }

// Decision implements model.Decider: the log "decides" when it is full;
// drivers use it as the stop condition.
func (s *logState) Decision() (int, bool) {
	if s.slot >= s.slots {
		return s.appended, true
	}
	return 0, false
}

// LogHolder is implemented by states exposing a replicated log.
type LogHolder interface {
	Entries() []int
}

// InitState implements model.Automaton.
func (a *Log) InitState(p model.ProcessID) model.State {
	st := &logState{
		p:          p,
		pending:    append([]int(nil), a.cmds[p]...),
		slots:      a.slots,
		entries:    make([]int, 0, a.slots),
		instances:  make(map[int]model.State, 2),
		progress:   make([]int, a.n),
		win:        make([]windowSlot, a.window),
		store:      newSharedStore(a.n),
		sentVer:    make([]uint64, a.n),
		appliedVer: make([]uint64, a.n),
	}
	st.openWindow(a, nil) // nothing parked at init: no sends, no FD use
	return st
}

// Step implements model.Automaton.
func (a *Log) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*logState)
	var out []model.Send

	// Deliver the received message to its slot's instance (if live).
	var currentGotMsg bool
	if m != nil {
		switch pl := m.Payload.(type) {
		case CommandPayload:
			st.learnCommand(pl.Cmd)
		case ProgressPayload:
			if pl.Slot > st.progress[m.From] {
				st.progress[m.From] = pl.Slot
				st.retire(a)
				st.sleepPassed(a)
			}
		case SlotPayload:
			// Apply any piggybacked history delta to the shared store, and
			// record an ACK's stamp, even when the slot has retired: the
			// delta chain from this sender must stay unbroken for later
			// slots, and an acknowledgement is a fact about the sender's
			// store, not about the instance that asked for it.
			payload := st.applyIncoming(m.From, pl.Inner, a.metrics)
			_, live := st.instances[pl.Slot]
			switch {
			case live && st.isQuiet(pl.Slot) && !st.mayNeed(m.From, pl.Slot):
				// A quiet instance hears only the processes it sleeps for.
				// The sender is done with this slot, so nobody is waiting
				// on our reaction; the message is kept, not dropped, because
				// a later wake-up resumes A_nuc where it stopped and A_nuc
				// sends each phase message exactly once.
				st.park(pl.Slot, m, payload)
				a.metrics.quietParked()
			case live:
				out = append(out, st.deliver(a, pl.Slot, m.From, m.Seq, payload, d)...)
				if pl.Slot >= st.slot {
					currentGotMsg = true
					out = append(out, st.harvest(a, d)...)
				}
				out = append(out, st.settle(a, pl.Slot, d)...)
			case pl.Slot >= st.slot && pl.Slot < st.slots:
				// The sender is ahead: it opened this slot before we did.
				// Park the message for replay when our instance opens —
				// dropping it would break the reliable-link assumption
				// A_nuc's termination proof rests on (see parkedMsg). Slots
				// below st.slot really are droppable: we decided them, and
				// retirement means every process has.
				st.park(pl.Slot, m, payload)
				a.metrics.parked()
			}
		default:
			panic(fmt.Sprintf("rsm: unknown payload %T", m.Payload))
		}
	}

	// Forward own commands once, so the eventual leader can propose them.
	if !st.announced {
		st.announced = true
		for _, c := range st.pending {
			out = append(out, model.Broadcast(model.FullSet(a.n).Remove(p), CommandPayload{Cmd: c})...)
		}
	}

	// Advance one in-flight instance (λ step if none just received the
	// message): the round-robin next of the window's awake slots — one inner
	// step however wide the window, so pipelining does not inflate the
	// per-step send budget.
	if st.slot < a.slots && !currentGotMsg {
		if slot, ok := st.nextInflight(); ok {
			out = append(out, st.stepInstance(a, slot, nil, d)...)
			out = append(out, st.harvest(a, d)...)
			out = append(out, st.settle(a, slot, d)...)
		}
	}

	// Pump one awake older instance so laggards are never stranded: an
	// awake decided instance is an ordinary A_nuc process and must keep
	// taking steps. It cannot run ahead of the laggard it is up for — the
	// quiet rule puts it to sleep one round past whatever it has heard — so
	// the pump needs no throttle. The awake older slots are the prefix of
	// st.awake below the frontier: per-step work is O(awake), not O(live).
	if k := sort.SearchInts(st.awake, st.slot); k > 0 {
		slot := st.awake[st.pump%k]
		st.pump++
		out = append(out, st.stepInstance(a, slot, nil, d)...)
		out = append(out, st.settle(a, slot, d)...)
	}

	st.compactStore(a.metrics)

	return st, out
}

// stepInstance advances slot's live instance by one inner step — delivering
// m, or a λ step when m is nil — and returns its sends slot-tagged, with
// history payloads delta-encoded (wrapShared, shared.go). Every inner step
// of the log goes through here.
//
// Fig. 4 falls from line 30 straight through lines 13–15: the step that
// completes a round broadcasts the next round's LEAD. When that step leaves
// the instance quiet nobody has been heard at the new round, so nobody has
// asked for that LEAD, and it is kept — as A_nuc emitted it — in s.held
// instead of returned: sending a message later is asynchrony the model
// grants. It goes through wrapShared only at release, so the
// per-destination delta chain and sentVer advance in the order messages
// really leave, and it leaves ahead of the releasing step's own sends: the
// first step after which the instance is not quiet (someone was heard at
// its round), or in which it moves on in that round regardless (the LEAD it
// waits for was in its inbox already). Heard rounds only move in deliver,
// which steps the instance straight after, so a held LEAD never outlives
// the quiet it was held under.
func (s *logState) stepInstance(a *Log, slot int, m *model.Message, d model.FDValue) []model.Send {
	ns, sends := a.inner.Step(s.p, s.instances[slot], m, d)
	s.instances[slot] = ns
	quiet := s.quietNow(slot)
	var released []model.Send
	if held := s.held[slot]; held != nil && (!quiet || movedOn(sends)) {
		delete(s.held, slot)
		a.metrics.quietRelease(len(held))
		released = s.wrapShared(slot, held)
	}
	if i := newRoundLead(sends); quiet && i < len(sends) {
		if s.held == nil {
			s.held = make(map[int][]model.Send)
		}
		s.held[slot] = sends[i:]
		a.metrics.quietHold(len(sends) - i)
		sends = sends[:i:i]
	}
	sends = s.wrapShared(slot, sends)
	if released == nil {
		return sends
	}
	return append(released, sends...)
}

// newRoundLead returns where, in one inner step's sends, the LEAD broadcast
// of a round entered in that step begins — len(sends) if it entered none.
// startRound is the last thing an A_nuc step does and the only place a LEAD
// is sent, so the broadcast is the tail of the slice.
func newRoundLead(sends []model.Send) int {
	i := len(sends)
	for i > 0 {
		if _, lead := sends[i-1].Payload.(consensus.LeadPayload); !lead {
			break
		}
		i--
	}
	return i
}

// movedOn reports whether one inner step's sends hold anything besides
// acknowledgements of a SAW: a wait of Fig. 4's main loop completed in it.
func movedOn(sends []model.Send) bool {
	for _, snd := range sends {
		if _, ack := snd.Payload.(consensus.AckPayload); !ack {
			return true
		}
	}
	return false
}

// deliver hands one slot message to the slot's live instance, first noting
// the sender's round in the heard table the quiet rule reads. Every message
// an instance ever receives — on arrival or replayed from the park buffer —
// comes through here.
func (s *logState) deliver(a *Log, slot int, from model.ProcessID, seq uint64, pl model.Payload, d model.FDValue) []model.Send {
	if k, ok := consensus.PayloadRound(pl); ok {
		row := s.heard[slot]
		if row == nil {
			if s.heard == nil {
				s.heard = make(map[int][]int)
			}
			row = make([]int, len(s.progress))
			s.heard[slot] = row
		}
		if k > row[from] {
			row[from] = k
		}
	}
	return s.stepInstance(a, slot, &model.Message{From: from, To: s.p, Seq: seq, Payload: pl}, d)
}

// park keeps a slot message for later replay (see parkedMsg); payload is
// m's inner payload after delta resolution.
func (s *logState) park(slot int, m *model.Message, payload model.Payload) {
	if s.parked == nil {
		s.parked = make(map[int][]parkedMsg)
	}
	s.parked[slot] = append(s.parked[slot], parkedMsg{from: m.From, seq: m.Seq, pl: payload})
}

// appendEntry commits the decided value of the frontier slot: into the
// retained entries slice, or out through the sink in sink mode. round is
// the A_nuc round this process observed the decision at, forwarded to
// RoundSink implementors.
func (s *logState) appendEntry(a *Log, v, round int) {
	if a.sink != nil {
		// RoundSink first: a tracing sink emits the slot's decide span
		// before OnEntry triggers the applies that causally follow it.
		if rs, ok := a.sink.(RoundSink); ok {
			rs.OnEntryRound(s.p, s.slot, v, round)
		}
		a.sink.OnEntry(s.p, s.slot, v)
	} else {
		s.entries = append(s.entries, v)
	}
	s.appended++
}

// harvest collects decisions from every in-flight slot (they can land out
// of order), appends the contiguous prefix at the frontier, gossips
// progress, and refills the window with fresh instances. A decided value
// leaves the proposal pools immediately — before it is appended — so the
// window never proposes it a second time.
func (s *logState) harvest(a *Log, d model.FDValue) []model.Send {
	for i := range s.win {
		if s.win[i].state != slotOpen {
			continue
		}
		inst := s.instances[s.slot+i]
		if v, ok := model.DecisionOf(inst); ok {
			round, _ := model.RoundOf(inst)
			s.win[i] = windowSlot{state: slotDecided, v: v, round: round}
			s.forgetCommand(v)
			if s.quietNow(s.slot + i) {
				a.metrics.quietEnter()
			} else {
				s.setAwake(s.slot+i, true)
			}
		}
	}
	var out []model.Send
	for s.win[0].state == slotDecided {
		w := s.win[0]
		copy(s.win, s.win[1:])
		s.win[len(s.win)-1] = windowSlot{}
		s.appendEntry(a, w.v, w.round)
		s.slot++
		s.progress[s.p] = s.slot
		out = append(out, model.Broadcast(model.FullSet(len(s.progress)).Remove(s.p), ProgressPayload{Slot: s.slot})...)
		s.retire(a)
	}
	out = append(out, s.openWindow(a, d)...)
	return out
}

// openWindow opens an instance for every in-flight slot that lacks one,
// assigning each a proposal no other open slot is already carrying, and
// replays any messages that arrived for those slots before they opened.
func (s *logState) openWindow(a *Log, d model.FDValue) []model.Send {
	var out []model.Send
	for i := range s.win {
		slot := s.slot + i
		if slot >= s.slots {
			break
		}
		if s.win[i].state != slotUnopened {
			continue
		}
		v := s.nextFreeProposal()
		s.win[i] = windowSlot{state: slotOpen, v: v}
		inst := a.inner.InitStateProposing(s.p, v, s.store)
		s.instances[slot] = inst
		a.metrics.opened(s.p, s.seedAwareness(slot, inst))
		n, sends := s.replayParked(a, slot, d)
		a.metrics.replayed(n)
		out = append(out, sends...)
	}
	return out
}

// replayParked delivers the messages parked for slot, in arrival order
// (which preserves per-sender FIFO), and reports how many there were. It
// serves both park reasons: arrivals before the instance opened (replayed
// by openWindow) and arrivals while it was quiet (replayed by settle). The
// burst of inner steps runs under one outer step: each parked message
// already paid for an outer step when it arrived, so the per-step send
// budget holds amortized. The list is short either way — what faster
// processes sent between opening the slot themselves and our window
// reaching it, or what its last awake peers sent before they too went
// quiet: a few rounds of phase messages per peer.
func (s *logState) replayParked(a *Log, slot int, d model.FDValue) (int, []model.Send) {
	msgs := s.parked[slot]
	if len(msgs) == 0 {
		return 0, nil
	}
	delete(s.parked, slot)
	var out []model.Send
	for _, pm := range msgs {
		out = append(out, s.deliver(a, slot, pm.from, pm.seq, pm.pl, d)...)
	}
	return len(msgs), out
}

// quiet is the gate on decided instances: a process's decided instance of
// slot, currently in round own, takes no steps while it is strictly ahead
// of the highest round heard, in this slot, from every other process not
// known to have passed the slot (a nil heard row, or a zero in it, is a
// process never heard from). An undecided instance is never quiet, and the
// process itself is not one it stays up for. Withholding a step is ordinary
// asynchrony, so safety does not depend on this rule; DESIGN.md "Quiet
// decided instances" has the liveness lemma.
func quiet(decided bool, own int, self model.ProcessID, slot int, progress, heard []int) bool {
	if !decided {
		return false
	}
	for q, passed := range progress {
		if model.ProcessID(q) == self || passed > slot {
			continue
		}
		h := 0
		if heard != nil {
			h = heard[q]
		}
		if own <= h {
			return false
		}
	}
	return true
}

// mayNeed reports whether q may still need this process's slot messages:
// it is another process and has not announced progress past slot. These
// are exactly the processes quiet compares rounds with, and a message from
// one of them is always delivered.
func (s *logState) mayNeed(q model.ProcessID, slot int) bool {
	return q != s.p && s.progress[q] <= slot
}

// decided reports whether the decision of a live slot has been harvested.
func (s *logState) decided(slot int) bool {
	return slot < s.slot || s.win[slot-s.slot].state == slotDecided
}

// quietNow evaluates the quiet rule for a live slot on the current state.
// It reads the decision off the instance, not the window: stepInstance asks
// in the very step that decides, before harvest has seen it.
func (s *logState) quietNow(slot int) bool {
	inst := s.instances[slot]
	_, decided := model.DecisionOf(inst)
	own, _ := model.RoundOf(inst)
	return quiet(decided, own, s.p, slot, s.progress, s.heard[slot])
}

// isQuiet reports the recorded status of a live slot: decided and not in
// the awake list.
func (s *logState) isQuiet(slot int) bool {
	if !s.decided(slot) {
		return false
	}
	i := sort.SearchInts(s.awake, slot)
	return i == len(s.awake) || s.awake[i] != slot
}

// setAwake inserts slot into, or removes it from, the ordered awake list.
func (s *logState) setAwake(slot int, awake bool) {
	i := sort.SearchInts(s.awake, slot)
	if awake {
		s.awake = append(s.awake, 0)
		copy(s.awake[i+1:], s.awake[i:])
		s.awake[i] = slot
	} else {
		s.awake = append(s.awake[:i], s.awake[i+1:]...)
	}
}

// settle brings a slot's recorded status in line with the quiet rule after
// something the rule reads moved: the instance stepped (own round) or a
// delivery raised a heard round. Falling asleep is bookkeeping; waking
// replays what was parked while quiet, after which A_nuc steps as ever.
func (s *logState) settle(a *Log, slot int, d model.FDValue) []model.Send {
	if _, live := s.instances[slot]; !live || !s.decided(slot) {
		return nil
	}
	now := s.quietNow(slot)
	if now == s.isQuiet(slot) {
		return nil
	}
	s.setAwake(slot, !now)
	if now {
		a.metrics.quietEnter()
		return nil
	}
	n, out := s.replayParked(a, slot, d)
	a.metrics.quietWake(n)
	if n > 0 && s.quietNow(slot) {
		// The replay itself carried the instance past the margin again.
		s.setAwake(slot, false)
		a.metrics.quietEnter()
	}
	return out
}

// sleepPassed re-evaluates every awake slot after a progress announcement:
// a process passing a slot can only remove a reason to stay up, so the
// only transitions are into quiet.
func (s *logState) sleepPassed(a *Log) {
	keep := s.awake[:0]
	for _, slot := range s.awake {
		if s.quietNow(slot) {
			a.metrics.quietEnter()
		} else {
			keep = append(keep, slot)
		}
	}
	s.awake = keep
}

// nextFreeProposal returns the first pending-then-known command not
// already proposed in an open in-flight slot, or NoOp.
func (s *logState) nextFreeProposal() int {
	for _, c := range s.pending {
		if !s.inWindow(slotOpen, c) {
			return c
		}
	}
	for _, c := range s.known {
		if !s.inWindow(slotOpen, c) {
			return c
		}
	}
	return NoOp
}

// inWindow reports whether some in-flight slot in the given state carries
// c: as my live proposal (slotOpen) or as a decision not yet appended
// (slotDecided).
func (s *logState) inWindow(state slotState, c int) bool {
	for _, w := range s.win {
		if w.state == state && w.v == c {
			return true
		}
	}
	return false
}

// nextInflight picks the in-flight slot whose instance advances this step,
// rotating round-robin so every open slot that is not quiet — decided ones
// included, while a laggard can still use their messages — advances
// infinitely often.
func (s *logState) nextInflight() (int, bool) {
	end := s.slot + len(s.win)
	if end > s.slots {
		end = s.slots
	}
	k := end - s.slot
	for i := 0; i < k; i++ {
		slot := s.slot + (s.rr+i)%k
		if _, live := s.instances[slot]; live && !s.isQuiet(slot) {
			s.rr = (s.rr + i + 1) % k
			return slot, true
		}
	}
	return 0, false
}

// learnCommand records a forwarded command unless it is already appended,
// pending, known, or decided-in-flight. (In sink mode the entries scan is
// vacuous: a late re-learn of an appended command costs one duplicate
// slot, which the serving layer's session dedup absorbs.)
func (s *logState) learnCommand(c int) {
	if c == NoOp || s.inWindow(slotDecided, c) {
		return
	}
	for _, v := range s.entries {
		if v == c {
			return
		}
	}
	for _, v := range s.pending {
		if v == c {
			return
		}
	}
	for _, v := range s.known {
		if v == c {
			return
		}
	}
	s.known = append(s.known, c)
}

// forgetCommand drops a decided command from the pending and known pools,
// wherever it sits: with a window above 1 slots decide out of order, so the
// value is not always at the head of pending.
func (s *logState) forgetCommand(v int) {
	s.pending = without(s.pending, v)
	s.known = without(s.known, v)
}

// without returns cmds less its first occurrence of v, never writing to
// cmds' backing array.
func without(cmds []int, v int) []int {
	for i, c := range cmds {
		if c == v {
			return append(cmds[:i:i], cmds[i+1:]...)
		}
	}
	return cmds
}

// retire discards instances below everyone's known progress: every process
// has decided those slots, so nobody can still need their messages. The
// slot's heard row, anything parked for it while quiet, the LEAD it held
// and its awake entry go with it. Instances only ever open at or above the
// frontier, so the slots to drop are exactly [floor, min): the work is
// O(retired), not O(live), however long a crash has stalled the floor.
func (s *logState) retire(a *Log) {
	min := s.progress[0]
	for _, pr := range s.progress[1:] {
		if pr < min {
			min = pr
		}
	}
	retired := 0
	for ; s.floor < min; s.floor++ {
		if _, live := s.instances[s.floor]; live {
			delete(s.instances, s.floor)
			delete(s.heard, s.floor)
			delete(s.parked, s.floor)
			delete(s.held, s.floor)
			retired++
		}
	}
	k := sort.SearchInts(s.awake, min)
	s.awake = append(s.awake[:0], s.awake[k:]...)
	a.metrics.retired(retired, retired-k)
}

// liveSlots lists every live instance in increasing order, for DebugState.
func (s *logState) liveSlots() []int {
	out := make([]int, 0, len(s.instances))
	for slot := range s.instances {
		out = append(out, slot)
	}
	sort.Ints(out)
	return out
}

// Inject appends freshly arrived commands to a process's pending queue
// outside the message-driven step cycle — the serving layer's ingress
// path. Like Step it consumes s: it returns the updated state (s itself,
// mutated) plus the CommandPayload broadcasts forwarding the commands; if
// the state has not announced yet, the initial announce will forward them
// instead and no sends are produced here.
func (a *Log) Inject(s model.State, cmds ...int) (model.State, []model.Send) {
	st := s.(*logState)
	var out []model.Send
	for _, c := range cmds {
		st.pending = append(st.pending, c)
		if st.announced {
			out = append(out, model.Broadcast(model.FullSet(a.n).Remove(st.p), CommandPayload{Cmd: c})...)
		}
	}
	return st, out
}

// FloorOf returns the retirement floor a log state knows: the minimum
// appended-slot progress across all processes. Every process has appended
// every slot below the floor, so decided values there can no longer be
// re-proposed — the serving layer keys its dedup-table compaction on it.
func FloorOf(s model.State) int {
	if st, ok := s.(*logState); ok {
		return st.floor // retire runs on every progress change
	}
	return 0
}

// AllAppended returns a stop predicate: every correct process has filled
// its log. It reads the state's Decision — the appended count once the log
// is full — so it costs no copy per step and holds in sink mode too, where
// entries are not retained.
func AllAppended(pattern *model.FailurePattern, slots int) func(*model.Configuration, model.Time) bool {
	correct := pattern.Correct()
	return func(c *model.Configuration, _ model.Time) bool {
		done := true
		correct.ForEach(func(p model.ProcessID) {
			if n, full := model.DecisionOf(c.States[p]); !full || n < slots {
				done = false
			}
		})
		return done
	}
}

// PairForLog builds the (Ω, Σν+) history the log needs, mirroring A_nuc's
// requirements. The two modules draw from decorrelated sub-streams of the
// configuration seed (fd.DeriveSeed): passing one seed to both used to
// make the pre-stabilization Ω and Σν+ noise move in lockstep.
func PairForLog(pattern *model.FailurePattern, stabilize model.Time, seed int64) model.History {
	return fd.PairHistory{
		First:  fd.NewOmega(pattern, stabilize, fd.DeriveSeed("omega", seed)),
		Second: fd.NewSigmaNuPlus(pattern, stabilize, fd.DeriveSeed("sigmanu+", seed)),
	}
}

// DebugState renders a process's replicated-log state for diagnostics.
func DebugState(s model.State) string {
	st, ok := s.(*logState)
	if !ok {
		return fmt.Sprintf("%T", s)
	}
	live := st.liveSlots()
	cur := "nil"
	if inst, ok := st.instances[st.slot]; ok {
		if r, has := model.RoundOf(inst); has {
			cur = fmt.Sprintf("round=%d", r)
		}
	}
	return fmt.Sprintf("slot=%d entries=%v progress=%v live=%v awake=%v current{%s} pending=%v known=%v",
		st.slot, st.entries, st.progress, live, st.awake, cur, st.pending, st.known)
}
