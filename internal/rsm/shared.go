// History plumbing of the replicated log: the paper's quorum histories H_p
// are monotone global facts ("r saw quorum q"), so the log keeps them once
// per process, not once per slot instance.
//
// Each process holds ONE versioned history store (quorum.Versioned) that
// all its live slot instances read and write through the
// consensus.HistoryStore interface, and outgoing LEAD/PROP messages carry
// (baseVersion, delta) against the version this process last shipped to
// that destination. Receivers apply the delta to their own store before
// handing the inner instance a history-free payload. Neither live state
// nor bytes-on-wire scale with how many instances are live or how much
// history has accumulated (E17).
//
// Delta chaining is sound because every substrate in this repository
// delivers FIFO per link and delta payloads never implement
// model.SupersededPayload (so inboxes cannot collapse one): the deltas a
// process receives from one sender arrive in send order, each based
// exactly on the previous one's To version. A receiver whose base has
// been compacted away (or a fresh delta after the sender's floor passed
// it) gets a full snapshot (Delta.Base == 0) instead — the
// rsm.hist.full_fallbacks counter measures how rarely that happens.
package rsm

import (
	"math/bits"
	"sync/atomic"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/quorum"
)

// WithMetrics attaches an obs metrics registry, pre-resolving the counters
// on the hot path (PR-6 discipline).
func (a *Log) WithMetrics(reg *obs.Registry) *Log {
	a.metrics = &logMetrics{
		deltaHits:     reg.Counter("rsm.hist.delta_hits"),
		fullFallbacks: reg.Counter("rsm.hist.full_fallbacks"),
		deltaGaps:     reg.Counter("rsm.hist.delta_gaps"),
		storeBytes:    reg.Gauge("rsm.hist.store_bytes"),
		storeEntries:  reg.Gauge("rsm.hist.store_entries"),
		fdEpochs:      reg.Counter("rsm.fd.epochs"),
		parkedMsgs:    reg.Counter("rsm.parked_msgs"),
		parkedReplay:  reg.Counter("rsm.parked_replayed"),
		quietParks:    reg.Counter("rsm.quiet_parked"),
		quietReplays:  reg.Counter("rsm.quiet_replayed"),
		quietEnters:   reg.Counter("rsm.quiet_enter"),
		quietWakes:    reg.Counter("rsm.quiet_wake"),
		quietRetires:  reg.Counter("rsm.quiet_retired"),
		quietHeld:     reg.Counter("rsm.quiet_held"),
		quietReleased: reg.Counter("rsm.quiet_released"),
		instOpened:    reg.Counter("rsm.instances_opened"),
		instRetired:   reg.Counter("rsm.instances_retired"),
		awareSeeded:   reg.Counter("rsm.aware.seeded"),
		awareUnseeded: reg.Counter("rsm.aware.unseeded"),
		awareRecords:  reg.Counter("rsm.aware.records"),
		awareLast:     make([]atomic.Pointer[awareOpen], a.n),
	}
	return a
}

// AwareStatus describes the last slot instance process p opened and why it
// was or was not seeded with an acknowledged quorum (aware.go) — the answer
// to "why is this slot taking three rounds". It is empty on an unmetered
// log or before p's first open, and safe to call while the log runs.
func (a *Log) AwareStatus(p model.ProcessID) string {
	if a.metrics == nil {
		return ""
	}
	if open := a.metrics.awareLast[p].Load(); open != nil {
		return open.String()
	}
	return ""
}

// WithSampler attaches the shared failure-detector sampler whose samples
// drive this log, subscribing the epoch-fanout counter: every epoch
// change any process's module announces is one rsm.fd.epochs increment.
func (a *Log) WithSampler(s *fd.Sampler) *Log {
	s.Subscribe(func(model.ProcessID, fd.Sample) {
		if a.metrics != nil {
			a.metrics.fdEpochs.Add(1)
		}
	})
	return a
}

// logMetrics holds the pre-resolved obs instruments. All methods are
// nil-receiver-safe so unmetered runs pay only a nil check.
type logMetrics struct {
	deltaHits     *obs.Counter
	fullFallbacks *obs.Counter
	deltaGaps     *obs.Counter
	storeBytes    *obs.Gauge // high-water wire size of one process's store
	storeEntries  *obs.Gauge // high-water entry count of one process's store
	fdEpochs      *obs.Counter
	// parkedMsgs / parkedReplay count messages that arrived before their
	// slot opened here entering and leaving the park buffers (see
	// parkedMsg). Both are monotone counters — the live parked population
	// is their difference — because only commutative instruments keep
	// metric dumps deterministic under concurrency.
	parkedMsgs   *obs.Counter
	parkedReplay *obs.Counter
	// The quiet gate's own books (see quiet in rsm.go), kept apart from the
	// two above so those keep meaning "late opener": messages parked at /
	// replayed into a quiet instance, transitions into and out of quiet,
	// and quiet instances discarded by retirement — the quiet population is
	// enter − wake − retired. held / released count the sends a quiet
	// instance's new-round LEAD was withheld from and those that went out
	// after all (see stepInstance); their difference was never needed.
	quietParks    *obs.Counter
	quietReplays  *obs.Counter
	quietEnters   *obs.Counter
	quietWakes    *obs.Counter
	quietRetires  *obs.Counter
	quietHeld     *obs.Counter
	quietReleased *obs.Counter
	// instOpened / instRetired count slot instances created and discarded; their
	// difference is the live-instance population a stalled floor grows.
	instOpened  *obs.Counter
	instRetired *obs.Counter
	// Quorum awareness (aware.go): instances opened with / without a seeded
	// quorum — the latter pay their own SAW → ACK round trip before line 30
	// can pass — and awareness records created (distinct quorums some
	// process has had acknowledged).
	awareSeeded   *obs.Counter
	awareUnseeded *obs.Counter
	awareRecords  *obs.Counter
	// awareLast[p] is the last instance process p opened, for AwareStatus;
	// atomics because a telemetry handler reads while p's goroutine steps.
	awareLast []atomic.Pointer[awareOpen]
}

func (m *logMetrics) hit() {
	if m != nil {
		m.deltaHits.Add(1)
	}
}

func (m *logMetrics) fallback() {
	if m != nil {
		m.fullFallbacks.Add(1)
	}
}

func (m *logMetrics) gap() {
	if m != nil {
		m.deltaGaps.Add(1)
	}
}

func (m *logMetrics) parked() {
	if m != nil {
		m.parkedMsgs.Add(1)
	}
}

func (m *logMetrics) replayed(n int) {
	if m != nil {
		m.parkedReplay.Add(int64(n))
	}
}

func (m *logMetrics) quietParked() {
	if m != nil {
		m.quietParks.Add(1)
	}
}

func (m *logMetrics) quietEnter() {
	if m != nil {
		m.quietEnters.Add(1)
	}
}

// quietWake counts one wake-up and the n parked messages it replayed.
func (m *logMetrics) quietWake(n int) {
	if m != nil {
		m.quietWakes.Add(1)
		m.quietReplays.Add(int64(n))
	}
}

func (m *logMetrics) quietHold(n int) {
	if m != nil {
		m.quietHeld.Add(int64(n))
	}
}

func (m *logMetrics) quietRelease(n int) {
	if m != nil {
		m.quietReleased.Add(int64(n))
	}
}

// opened counts one instance created by p, as the awareness gate saw it.
func (m *logMetrics) opened(p model.ProcessID, open awareOpen) {
	if m != nil {
		m.instOpened.Add(1)
		if open.seeded > 0 {
			m.awareSeeded.Add(1)
		} else {
			m.awareUnseeded.Add(1)
		}
		m.awareLast[p].Store(&open)
	}
}

func (m *logMetrics) awareRecord() {
	if m != nil {
		m.awareRecords.Add(1)
	}
}

// retired counts n discarded instances, quiet of which were quiet.
func (m *logMetrics) retired(n, quiet int) {
	if m != nil {
		m.instRetired.Add(int64(n))
		m.quietRetires.Add(int64(quiet))
	}
}

// sharedStore adapts one process's quorum.Versioned to the
// consensus.HistoryStore interface. CloneStore returns the receiver: when
// the owning logState is forked (CloneState) it clones the Versioned
// exactly once and rebinds every cloned instance, so a fork costs
// O(history) once instead of once per live instance — and without the
// rebind the fork's instances would keep writing the original's store.
// Steps never clone: they mutate the one store in place.
type sharedStore struct {
	v *quorum.Versioned
	// lastSizedVer throttles the O(entries) wire-size walk behind version
	// changes, so the per-step gauge update is O(1) in steady state.
	lastSizedVer uint64
	wireBytes    int
}

func newSharedStore(n int) *sharedStore {
	return &sharedStore{v: quorum.NewVersioned(n)}
}

func (s *sharedStore) Add(r model.ProcessID, q model.ProcessSet) { s.v.Add(r, q) }

func (s *sharedStore) Import(h quorum.Histories) {
	if h != nil {
		s.v.Import(h)
	}
}

func (s *sharedStore) Distrusts(p, q model.ProcessID) bool { return s.v.Distrusts(p, q) }

func (s *sharedStore) ConsideredFaulty(p model.ProcessID) model.ProcessSet {
	return s.v.ConsideredFaulty(p)
}

// Outgoing returns nil: the log's payloads carry no inline histories —
// the transport ships versioned deltas instead (wrapShared).
func (s *sharedStore) Outgoing() quorum.Histories { return nil }

func (s *sharedStore) CloneStore() consensus.HistoryStore { return s }

func (s *sharedStore) clone() *sharedStore {
	return &sharedStore{v: s.v.Clone(), lastSizedVer: s.lastSizedVer, wireBytes: s.wireBytes}
}

// sizeBytes returns the exact wire size of the store's entries (the bytes
// a full snapshot's add list would occupy), recomputed only when the
// version moved.
func (s *sharedStore) sizeBytes() int {
	if s.v.Version() != s.lastSizedVer {
		total := 0
		for r, set := range s.v.Histories() {
			for q := range set {
				total += uvarintLen(uint64(r)) + uvarintLen(uint64(q))
			}
		}
		s.wireBytes = total
		s.lastSizedVer = s.v.Version()
	}
	return s.wireBytes
}

// uvarintLen is the LEB128 length of v (the wire codec's varint).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// wrapShared turns an inner instance's sends into slot-tagged,
// delta-encoded payloads, in place: LEAD/PROP (whose Hist is nil — see
// Outgoing) become LeadDeltaPayload/ProposalDeltaPayload carrying
// everything this process's store gained since the version last shipped to
// that destination; ACK gains its awareness stamp (aware.go) — this runs
// straight after the inner step that handled the SAW, so the window is the
// one the handler ran under; REP/SAW are only slot-tagged. Per-link FIFO
// delivery makes the per-destination chain airtight; sends within one step
// to the same destination chain through sentVer just like sends in
// different steps. Overwriting is legal because A_nuc builds a fresh send
// slice every step and Step owns what it is handed.
func (s *logState) wrapShared(slot int, sends []model.Send) []model.Send {
	for i, snd := range sends {
		pl := snd.Payload
		switch p := pl.(type) {
		case consensus.LeadPayload:
			pl = consensus.LeadDeltaPayload{K: p.K, V: p.V, Delta: s.deltaFor(snd.To)}
		case consensus.ProposalPayload:
			pl = consensus.ProposalDeltaPayload{K: p.K, V: p.V, HasV: p.HasV, Delta: s.deltaFor(snd.To)}
		case consensus.AckPayload:
			pl = AckStampPayload{Q: p.Q, K: p.K, Stamp: s.slot + len(s.win) - 1}
		}
		sends[i].Payload = SlotPayload{Slot: slot, Inner: pl}
	}
	return sends
}

func (s *logState) deltaFor(to model.ProcessID) quorum.Delta {
	d := s.store.v.DeltaSince(s.sentVer[to])
	s.sentVer[to] = d.To
	return d
}

// applyIncoming runs on every slot-wrapped payload a process receives:
// delta payloads are applied to the store, a stamped ACK is entered in the
// awareness record, and both are replaced by their plain forms before the
// inner instance sees them. REP and SAW pass through untouched.
func (s *logState) applyIncoming(from model.ProcessID, inner model.Payload, m *logMetrics) model.Payload {
	switch p := inner.(type) {
	case consensus.LeadDeltaPayload:
		s.applyDelta(from, p.Delta, m)
		return p.Plain()
	case consensus.ProposalDeltaPayload:
		s.applyDelta(from, p.Delta, m)
		return p.Plain()
	case AckStampPayload:
		s.recordAck(from, p, m)
		return p.Plain()
	}
	return inner
}

func (s *logState) applyDelta(from model.ProcessID, d quorum.Delta, m *logMetrics) {
	switch {
	case d.IsSnapshot():
		m.fallback()
	case d.Base <= s.appliedVer[from]:
		m.hit()
	default:
		// A base beyond what we applied means the chain skipped — which
		// per-link FIFO delivery makes impossible under every built-in
		// scheduler and substrate. Count it loudly (the counter pins 0 in
		// tests); the adds below are still true facts and still applied.
		m.gap()
	}
	s.store.v.Apply(d)
	if d.To > s.appliedVer[from] {
		s.appliedVer[from] = d.To
	}
}

// compactStore advances the shared store's compaction floor to the lowest
// version shipped to any destination: every future outgoing delta bases
// at or above it, so the discarded log prefix can never be asked for
// again. Called once per step.
func (s *logState) compactStore(m *logMetrics) {
	min := s.sentVer[0]
	for _, v := range s.sentVer[1:] {
		if v < min {
			min = v
		}
	}
	s.store.v.Compact(min)
	if m != nil {
		m.storeBytes.Max(int64(s.store.sizeBytes()))
		m.storeEntries.Max(int64(s.store.v.Len()))
	}
}

// StateStats reports the live-state footprint of one process's log state,
// for the long-log scale experiment (E17): how much history the state
// holds (one store, however many instances read it) and how many instances
// are live.
type StateStats struct {
	LiveInstances int
	HistEntries   int    // (process, quorum) entries held by the store
	StoreVersion  uint64 // the store's version counter
	StoreBytes    int    // exact wire size of the store
}

// StatsOf computes StateStats for a log state (zero value for other
// states).
func StatsOf(st model.State) StateStats {
	s, ok := st.(*logState)
	if !ok {
		return StateStats{}
	}
	return StateStats{
		LiveInstances: len(s.instances),
		HistEntries:   s.store.v.Len(),
		StoreVersion:  s.store.v.Version(),
		StoreBytes:    s.store.sizeBytes(),
	}
}

// SamplerForLog wraps PairForLog in a shared fd.Sampler: one (Ω, Σν+)
// module pair per process, queried once per logical tick, fanning
// epoch-stamped samples out to every live slot instance.
func SamplerForLog(pattern *model.FailurePattern, stabilize model.Time, seed int64) *fd.Sampler {
	return fd.NewSampler(PairForLog(pattern, stabilize, seed))
}
