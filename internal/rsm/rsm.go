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
//     keeps stepping — on every λ-step while it is in flight, pumped
//     round-robin with the other awake ones once the frontier has passed
//     it — for as long as some process that has not passed the slot could
//     be waiting on it, and goes quiet once it is a round ahead of
//     everything heard from every such process: everything it could be
//     asked for is sent, except the LEAD of the round it has just entered,
//     which nobody has asked for and which the log holds back (see quiet,
//     stepInstance).
//     A quiet instance takes no steps, wakes — held LEAD out first — when
//     such a process is heard reaching its round, and costs nothing in
//     between: a slot decided in round 1 costs one round of traffic, and a
//     crashed process, whose progress never moves, does not keep every
//     later slot cycling for ever.
//
// Retirement is still possible — safely — through progress gossip: once
// every process is known to have passed a slot, its instance is discarded.
// A late PRGR delays what a peer knows but never falsifies it, so a peer's
// progress row stays a lower bound on the real frontier, which is all the
// quiet rule needs.
//
// Everything a process sends a peer besides what its instances emit in the
// step — its frontier (PRGR), its Ω output (FLW), the round-1 LEADs it
// holds for peers that follow another process, and what is owed its peers
// (Owe, and the commands NewLog was given) — is a row of one outbox
// (outbox.go), each with its release rule, and the outbox's flush turns a
// step's sends into what leaves: one message per peer (bundle.go). Step
// takes a bundle's items in the order they were sent.
//
// Everything a process knows about one slot — the instance, its place in
// the window, the rounds heard in it — sits in one record (slot.go), and so
// does what the log withholds on the slot's account: a queue of inbound
// messages the instance is not handed yet (it has not opened here, or it
// is quiet and the sender has passed the slot) and the quiet instance's
// held LEAD. Inbound traffic passes one gate in Step (accepts) — a peer's,
// and the process's own, which never leaves the step (loopback); each queue
// is filled in one place and emptied in one place, and both only ever delay
// what the asynchronous model lets be delayed (§2.4). window.go opens,
// harvests, appends and retires the records.
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

// FollowPayload announces the sender's current Ω output: the process whose
// LEAD its round-1 instances wait for. A peer holds its round-1 LEADs for
// the sender until the sender names it (outbox.go). It never supersedes:
// the receiver takes every announcement, in order.
type FollowPayload struct {
	Leader model.ProcessID
}

// Kind implements model.Payload.
func (FollowPayload) Kind() string { return "FLW" }

// String implements model.Payload.
func (f FollowPayload) String() string { return fmt.Sprintf("FLW(%s)", f.Leader) }

// Log is the replicated-log automaton. Drive it with (Ω, Σν+) pair
// histories, like A_nuc itself.
type Log struct {
	n     int
	cmds  [][]int // cmds[p]: commands process p wants appended
	slots int     // stop appending after this many slots
	inner slotAutomaton

	metrics *logMetrics // obs instruments, resolved once per log; never nil
	window  int         // in-flight slot instances, >= 1 (see WithPipeline)
	sink    EntrySink   // decided entries leave the state; nil keeps them
}

// slotAutomaton is what the log asks of A_nuc (consensus.ANuc): an instance
// per slot, proposing at runtime over the process's one store, and its inner
// steps.
type slotAutomaton interface {
	InitStateProposing(p model.ProcessID, v int, store consensus.HistoryStore) model.State
	Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send)
}

// blocker is what Idle asks of a slot's A_nuc instance: whether a λ-step of
// it under d would change nothing and send nothing (consensus's Blocked).
type blocker interface {
	Blocked(d model.FDValue) bool
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
// it additionally learn the A_nuc round in which this process's instance
// decided the slot (model.DecidedRoundOf) — the per-slot consensus cost a
// tracing pipeline attributes to every command in the slot. Rounds are
// per-process (a laggard may decide a round later than the process that
// drove the decision), which is exactly what a span emitted by that
// process should carry.
type RoundSink interface {
	OnEntryRound(p model.ProcessID, slot int, v int, round int)
}

// WithPipeline widens the window of in-flight slot instances to k: slots
// [frontier, frontier+k) all run A_nuc concurrently, and a λ-step advances
// every awake one of them, ascending. What they send one peer leaves as one
// bundle, so the per-step send budget stays one message per peer and
// msgs/slot falls as k grows. Decisions can land out of order; entries are
// still appended in slot order, and a command decided in two slots
// (possible when a re-proposal races its own decision) is the serving
// layer's dedup problem. A new log has window 1 — slot k+1 opens
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
	return &Log{n: n, cmds: cp, slots: slots, window: 1, inner: consensus.NewANuc(make([]int, n)), metrics: newLogMetrics(nil, n)}
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
	entries []int // the log: decided values per slot; nil in sink mode

	progress []int // known progress of every process
	pump     int   // round-robin cursor over awake older instances
	appended int   // entries appended (== len(entries) unless sinking)

	// box is what leaves for a peer besides the step's instance sends, and
	// when (outbox.go).
	box outbox

	// recs is the one per-slot container (slot.go): a slot's instance, its
	// window bookkeeping, the rounds heard in it and both deferral queues.
	// It holds a record for every slot in [floor, windowEnd()) — each with a
	// live instance — plus any slot above the window a faster process has
	// already sent for.
	recs   map[int]*slotRec
	window int // in-flight slots: [slot, slot+window), == Log.window

	// awake lists, ascending, the decided live slots that still step: every
	// other decided live slot is quiet (see quiet). It is an index derived
	// from the records, kept so that the pump's per-step work is O(awake),
	// not O(live), under a stalled floor: harvest lists a slot when it
	// decides, settle keeps it current, retire trims it with the records.
	awake []int
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

// CloneState implements model.State: the fork of a log state. Step and
// Inject never call it — they mutate the state they are handed.
func (s *logState) CloneState() model.State {
	c := *s
	c.pending = append([]int(nil), s.pending...)
	c.known = append([]int(nil), s.known...)
	c.entries = append([]int(nil), s.entries...)
	c.progress = append([]int(nil), s.progress...)
	c.box = s.box.clone()
	// Clone the shared store ONCE, then rebind every cloned instance: the
	// instances' own CloneStore is identity for shared stores.
	c.store = s.store.clone()
	c.sentVer = append([]uint64(nil), s.sentVer...)
	c.appliedVer = append([]uint64(nil), s.appliedVer...)
	c.awake = append([]int(nil), s.awake...)
	if s.aware != nil {
		c.aware = make(map[model.ProcessSet][]int, len(s.aware))
		for k, v := range s.aware {
			c.aware[k] = append([]int(nil), v...)
		}
	}
	c.recs = make(map[int]*slotRec, len(s.recs))
	for slot, r := range s.recs {
		cr := *r
		if r.inst != nil {
			cr.inst = r.inst.CloneState()
			cr.inst.(consensus.StoreBound).BindStore(c.store)
		}
		cr.heard = append([]int(nil), r.heard...)
		cr.in = append([]parkedMsg(nil), r.in...)
		cr.out = append([]model.Send(nil), r.out...)
		c.recs[slot] = &cr
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
func (a *Log) InitState(p model.ProcessID) model.State { return a.InitStateWith(p) }

// InitStateWith is InitState with cmds injected (Inject) before the
// window opens, so the first in-flight slots propose them. The commands
// NewLog was given are owed (Owe) as CMD items, so they leave with the
// first step that sends anything, to every peer; cmds are not: like
// injected commands, a caller that wants them forwarded owes their
// forward.
func (a *Log) InitStateWith(p model.ProcessID, cmds ...int) model.State {
	st := &logState{
		p:          p,
		pending:    append(append([]int(nil), a.cmds[p]...), cmds...),
		slots:      a.slots,
		progress:   make([]int, a.n),
		box:        newOutbox(a.n),
		recs:       make(map[int]*slotRec, a.window+1),
		window:     a.window,
		store:      newSharedStore(a.n),
		sentVer:    make([]uint64, a.n),
		appliedVer: make([]uint64, a.n),
	}
	if a.sink == nil {
		st.entries = make([]int, 0, a.slots)
	}
	for _, c := range a.cmds[p] {
		st.box.owed = append(st.box.owed, CommandPayload{Cmd: c})
	}
	st.openWindow(a, nil) // nothing deferred at init: no sends, no FD use
	return st
}

// Step implements model.Automaton.
func (a *Log) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*logState)
	var out []model.Send

	// Take the received message — each item of a bundle in turn, in the
	// order they were sent — delivering slot messages to their instances if
	// the gate lets them through.
	var currentGotMsg bool
	if m != nil {
		items, bundled := m.Payload.(Bundle)
		if !bundled {
			items = Bundle{m.Payload}
		}
		for _, pl := range items {
			sends, current := st.take(a, m.From, m.Seq, pl, d)
			if out == nil { // a bare message's sends, uncopied
				out = sends
			} else {
				out = append(out, sends...)
			}
			currentGotMsg = currentGotMsg || current
		}
	}

	// Advance the window (λ step if no message reached an in-flight slot):
	// every awake in-flight slot takes one inner λ-step, in ascending order.
	// What they send one peer leaves as one bundle, so the per-step send
	// budget is the same however wide the window (DESIGN.md §10 "Window
	// advance").
	if st.slot < a.slots && !currentGotMsg {
		for slot, end := st.slot, st.windowEnd(); slot < end; slot++ {
			if r := st.recs[slot]; slot < st.slot || r == nil || r.inst == nil || st.isQuiet(slot) {
				continue // passed by harvest or retired, unopened, or asleep
			}
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

	// Start every in-flight slot still at Fig. 4's start: lines 13–15 wait
	// for nothing, so a slot opened in this step starts round 1 in it. This
	// runs before loopback: a slot opened there starts on the next step, so
	// the self-message chain still ends (DESIGN.md §10 "Window advance").
	for slot := st.slot; slot < st.windowEnd(); slot++ {
		if k, ok := model.RoundOf(st.recs[slot].inst); ok && k == 0 {
			out = append(out, st.stepInstance(a, slot, nil, d)...)
		}
	}

	out = st.flush(a, st.loopback(a, out, d), d)
	st.compactStore(a.metrics)
	return st, out
}

// Idle implements model.Idler: it reports that Step(p, s, nil, d) would
// send nothing and change nothing, reading Step's λ half in order.
//   - The window advance steps every in-flight slot that is open or awake.
//     Each must be Blocked under d (blocker), with no held LEAD that
//     stepping it would release; then harvest finds no open slot's
//     decision, and settle flips no decided slot's quiet status. An
//     in-flight slot without an instance is work for harvest's open.
//   - The pump steps an awake slot below the frontier whenever there is one.
//   - flush sends PRGR or FLW to any peer whose per-peer rule lets them
//     leave alone (peerRule). The owed rows wait for a step that sends
//     something.
func (a *Log) Idle(p model.ProcessID, s model.State, d model.FDValue) bool {
	st := s.(*logState)
	if sort.SearchInts(st.awake, st.slot) > 0 {
		return false
	}
	for slot := st.slot; slot < st.windowEnd(); slot++ {
		r := st.recs[slot]
		if r == nil || r.inst == nil {
			return false
		}
		switch r.state {
		case slotOpen:
			if _, decided := model.DecisionOf(r.inst); decided {
				return false
			}
		case slotDecided:
			quiet := st.isQuiet(slot)
			if quiet != st.quietNow(slot) {
				return false
			}
			if quiet {
				continue
			}
		}
		if b, ok := r.inst.(blocker); r.out != nil || !ok || !b.Blocked(d) {
			return false
		}
	}
	bare, waiting := st.inFlight()
	leader, _ := fd.LeaderOf(d)
	for q := range st.box.peer {
		if to := model.ProcessID(q); to != p {
			if _, _, alone := st.peerRule(to, leader, bare, waiting); alone {
				return false
			}
		}
	}
	return true
}

// take is Step's receive switch for one payload: a bare message's, or one
// item of a bundle. It returns what taking it sends and whether it was a
// slot message that reached an instance at or above the frontier.
func (s *logState) take(a *Log, from model.ProcessID, seq uint64, pl model.Payload, d model.FDValue) ([]model.Send, bool) {
	switch pl := pl.(type) {
	case CommandPayload:
		s.learnCommand(pl.Cmd)
	case ProgressPayload:
		if pl.Slot > s.progress[from] {
			s.progress[from] = pl.Slot
			s.retire(a)
			// A process passing a slot can only remove a reason to stay up,
			// so every transition here is into quiet — backwards, because
			// settle removes the entry it puts to sleep.
			for i := len(s.awake) - 1; i >= 0; i-- {
				s.settle(a, s.awake[i], d)
			}
		}
	case FollowPayload:
		s.box.peer[from].follows = pl.Leader
		if pl.Leader == s.p {
			return s.release(a, from), false
		}
	case SlotPayload:
		return s.receive(a, from, seq, pl, d)
	default:
		panic(fmt.Sprintf("rsm: unknown payload %T", pl))
	}
	return nil, false
}

// receive is the one receive path of a slot message, whoever sent it: a
// peer's arrives as Step's message, this process's own through loopback.
// It returns what the delivery sends and whether the message reached an
// instance at or above the frontier.
func (s *logState) receive(a *Log, from model.ProcessID, seq uint64, pl SlotPayload, d model.FDValue) ([]model.Send, bool) {
	// Apply any piggybacked history delta to the shared store, and record an
	// ACK's stamp, even when the slot has retired: the delta chain from this
	// sender must stay unbroken for later slots, and an acknowledgement is a
	// fact about the sender's store, not about the instance that asked for
	// it.
	payload := s.applyIncoming(from, pl.Inner, a.metrics)
	if pl.Slot < s.floor || pl.Slot >= s.slots {
		// Below the floor the slot has retired — every process has decided
		// it — and at or past slots it never exists: these are the only slot
		// messages dropped. Every slot in between has a record, or gets one
		// now.
		return nil, false
	}
	if r := s.rec(pl.Slot); !s.accepts(r, pl.Slot, from) {
		// Deferred, not dropped: that would break the reliable-link
		// assumption A_nuc's termination proof rests on (see parkedMsg).
		// This is the one place a message joins r.in.
		r.in = append(r.in, parkedMsg{from: from, seq: seq, pl: payload})
		if r.inst == nil {
			a.metrics.parkedMsgs.Add(1) // the sender is ahead: no instance here yet
		} else {
			a.metrics.quietParks.Add(1) // the sender has passed; we sleep
		}
		return nil, false
	}
	out := s.deliver(a, pl.Slot, from, seq, payload, d)
	current := pl.Slot >= s.slot
	if current {
		out = append(out, s.harvest(a, d)...)
	}
	return append(out, s.settle(a, pl.Slot, d)...), current
}

// loopback delivers the sends of this step addressed to this process itself
// — Fig. 4 broadcasts LEAD, REP and PROP to Π and SAW to Q_p, and both
// include the sender — as further inner steps of the same outer step, in
// emission order, and returns the sends that leave. A zero-delay FIFO
// self-link is one of the schedules the model admits (§2.4), and an outer
// step is already a finite run of inner steps under one FD value (drain):
// a message to oneself carries nothing its sender did not know when it sent
// it, so its round trip through the inbox buys no safety. The chain ends:
// each iteration consumes one queued self-send, no peer message arrives
// meanwhile, and A_nuc completes a round on self-messages alone only when
// Q_p = {p} and Ω = p — where the instance decides within a few rounds, is
// soon a round past everything heard from its peers, and the quiet rule
// holds its next LEAD (DESIGN.md §10 "Loopback").
func (s *logState) loopback(a *Log, out []model.Send, d model.FDValue) []model.Send {
	// out is the self-link's queue too: what a delivery sends is appended
	// behind everything sent before it.
	for i := 0; i < len(out); i++ {
		if out[i].To == s.p {
			more, _ := s.receive(a, s.p, 0, out[i].Payload.(SlotPayload), d)
			out = append(out, more...)
		}
	}
	sent := out[:0]
	for _, snd := range out {
		if snd.To != s.p {
			sent = append(sent, snd)
		}
	}
	return sent
}

// Inject appends freshly arrived commands to a process's pending queue
// outside the message-driven step cycle — the serving layer's ingress
// path. Like Step it consumes s: it returns the updated state (s itself,
// mutated). It sends nothing: a caller that wants an injected command
// forwarded owes the peers its forward (Owe; the serving layer owes the
// batch body); the log owes the CMDs of only the commands it was built
// with.
func (a *Log) Inject(s model.State, cmds ...int) model.State {
	st := s.(*logState)
	st.pending = append(st.pending, cmds...)
	return st
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

// OwnWaiting reports whether a log state holds an own pending command that
// no in-flight slot carries yet as this process's proposal: it waits for
// a slot to open. The serving layer seals its next batch only while this
// is false, so under load commands queue in ingress and join one batch,
// and an idle replica's first command is proposed with the next slot.
func OwnWaiting(s model.State) bool {
	if st, ok := s.(*logState); ok {
		_, waiting := st.firstFree(st.pending)
		return waiting
	}
	return false
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
	cur := "nil"
	if r := st.recs[st.slot]; r != nil && r.inst != nil {
		if k, has := model.RoundOf(r.inst); has {
			cur = fmt.Sprintf("round=%d", k)
		}
	}
	in, out, held := 0, 0, 0
	for _, r := range st.recs {
		in += len(r.in)
		out += len(r.out)
		held += r.lent.Len()
	}
	return fmt.Sprintf("slot=%d entries=%v progress=%v live=%v awake=%v deferred=%d/%d current{%s} pending=%v known=%v outbox{held=%d owed=%d}",
		st.slot, st.entries, st.progress, st.liveSlots(), st.awake, in, out, cur, st.pending, st.known,
		held, len(st.box.owed))
}
