// History plumbing of the replicated log: the paper's quorum histories H_p
// are monotone global facts ("r saw quorum q"), so the log keeps them once
// per process, not once per slot instance.
//
// Each process holds ONE versioned history store (quorum.Versioned) that
// all its live slot instances read and write through the
// consensus.HistoryStore interface, and outgoing LEAD/PROP messages carry a
// delta: the adds since the version this process last shipped to that
// destination, and the version they reach. Its base is that last-shipped
// version, and To − len(Adds) always equals it, so the wire frame carries
// only To and the adds (one byte when there are none). Receivers apply the
// delta to their own store before handing the inner instance a
// history-free payload. Neither live state
// nor bytes-on-wire scale with how many instances are live or how much
// history has accumulated (E17).
//
// Delta chaining is sound because every substrate in this repository
// delivers FIFO per link and delta payloads never implement
// model.SupersededPayload (so inboxes cannot collapse one): the deltas a
// process receives from one sender arrive in send order, each based
// exactly on the previous one's To version. The store compacts only to
// the lowest version already sent to any peer, so no delta's base is ever
// compacted away: the only full snapshot (Delta.Base == 0) is each link's
// first transfer, which is what the rsm.hist.full_fallbacks counter counts
// (DESIGN.md §10).
package rsm

import (
	"math"
	"math/bits"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
)

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

func (s *sharedStore) Has(r model.ProcessID, q model.ProcessSet) bool {
	return s.v.Histories()[r].Has(q)
}

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
			for _, q := range set {
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
// Outgoing) to a peer become LeadDeltaPayload/ProposalDeltaPayload carrying
// everything this process's store gained since the version last shipped to
// that destination, while to this process itself — loopback, rsm.go — they
// stay plain: the store a delta would patch is the sender's own. ACK gains
// its awareness stamp (aware.go), to itself too, since recordAck reads it —
// this runs straight after the inner step that handled the SAW, so the
// window is the one the handler ran under; REP/SAW are only slot-tagged.
// A round-1 LEAD to a peer that follows another process is held instead
// (lends, outbox.go): it leaves the slice raw, into the slot's record, and
// takes its delta only at release. Per-link FIFO delivery makes the
// per-destination chain airtight; sends within one step to the same
// destination chain through sentVer just like sends in different steps.
// Overwriting is legal because A_nuc builds a fresh send slice every step
// and Step owns what it is handed.
func (s *logState) wrapShared(a *Log, slot int, sends []model.Send) []model.Send {
	kept := sends[:0]
	for _, snd := range sends {
		pl := snd.Payload
		peer := snd.To != s.p
		switch p := pl.(type) {
		case consensus.LeadPayload:
			if peer && p.K == 1 && s.lends(snd.To) {
				r := s.recs[slot]
				r.lent, r.lead = r.lent.Add(snd.To), p
				a.metrics.leadLent.Add(1)
				continue
			}
			if peer {
				pl = consensus.LeadDeltaPayload{K: p.K, V: p.V, Delta: s.deltaFor(snd.To)}
			}
		case consensus.ProposalPayload:
			if peer {
				pl = consensus.ProposalDeltaPayload{K: p.K, V: p.V, HasV: p.HasV, Delta: s.deltaFor(snd.To)}
			}
		case consensus.AckPayload:
			pl = AckStampPayload{Q: p.Q, K: p.K, Stamp: s.slot + s.window - 1}
		}
		snd.Payload = SlotPayload{Slot: slot, Inner: pl}
		kept = append(kept, snd)
	}
	return kept
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
		s.recordAck(from, p, m.awareRecords)
		return p.Plain()
	}
	return inner
}

func (s *logState) applyDelta(from model.ProcessID, d quorum.Delta, m *logMetrics) {
	switch {
	case d.IsSnapshot():
		m.fullFallbacks.Add(1)
	case d.Base <= s.appliedVer[from]:
		m.deltaHits.Add(1)
	default:
		// A base beyond what we applied means the chain skipped — which
		// per-link FIFO delivery makes impossible under every built-in
		// scheduler and substrate. Count it loudly (the counter pins 0 in
		// tests); the adds below are still true facts and still applied.
		m.deltaGaps.Add(1)
	}
	s.store.v.Apply(d)
	if d.To > s.appliedVer[from] {
		s.appliedVer[from] = d.To
	}
}

// compactStore advances the shared store's compaction floor to the lowest
// version shipped to any peer — nothing is shipped to the process itself,
// so its own sentVer entry stays 0 and must not pin the floor: every future
// outgoing delta bases at or above it, so the discarded log prefix can never
// be asked for again. Called once per step.
func (s *logState) compactStore(m *logMetrics) {
	min := uint64(math.MaxUint64)
	for q, v := range s.sentVer {
		if model.ProcessID(q) != s.p && v < min {
			min = v
		}
	}
	s.store.v.Compact(min)
	m.storeBytes.Max(int64(s.store.sizeBytes()))
	m.storeEntries.Max(int64(s.store.v.Len()))
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
		LiveInstances: s.windowEnd() - s.floor, // see windowEnd: exactly these slots are live
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
