// Versioned histories: the same H_p state as Histories, wrapped with a
// monotone version counter and an append-only add log so that senders can
// ship O(delta) updates ("everything since the version I last sent you")
// instead of cloning the full history into every LEAD/PROP message.
//
// Version numbers are local to one Versioned store: version v means "v
// distinct (process, quorum) pairs have been recorded here". A Delta
// carries an interval [Base, To] in the *sender's* version space; the
// receiver merges the adds into its own store (set union — adds commute
// and dedup, so redundant or re-ordered deltas are harmless) and tracks
// the sender's To separately to know which future deltas chain.
package quorum

import (
	"fmt"
	"slices"

	"nuconsensus/internal/model"
)

// DeltaEntry records one addition to a history: process R saw quorum Q.
type DeltaEntry struct {
	R model.ProcessID
	Q model.ProcessSet
}

// compareEntries is the canonical (R, then Q) order used everywhere a
// delta is rendered or encoded, so the bytes never depend on add order.
func compareEntries(a, b DeltaEntry) int {
	if a.R != b.R {
		return int(a.R) - int(b.R)
	}
	switch {
	case a.Q < b.Q:
		return -1
	case a.Q > b.Q:
		return 1
	}
	return 0
}

// Delta is a canonical batch of history additions. Base is the sender-side
// version the receiver must already have applied for the delta to be
// complete; Base == 0 marks a full snapshot, applicable unconditionally
// (the fallback when the sender has compacted past the receiver's base).
// To is the sender-side version reached after applying. Adds is sorted by
// (R, Q) and free of duplicates.
//
// Every delta a Versioned store issues spans exactly its adds: To − Base ==
// len(Adds), snapshots included (a snapshot holds all To entries). Base is
// therefore derived, not news: the wire frame leaves it out and the
// decoder rebuilds it from To and the add count (internal/wire).
type Delta struct {
	Base uint64
	To   uint64
	Adds []DeltaEntry
}

// IsSnapshot reports whether d is a full-history fallback rather than an
// incremental delta.
func (d Delta) IsSnapshot() bool { return d.Base == 0 && d.To > 0 }

// String renders the delta compactly (for debug output and tests).
func (d Delta) String() string {
	return fmt.Sprintf("Δ[%d→%d]%v", d.Base, d.To, d.Adds)
}

// Versioned wraps Histories with the version counter and add log. The zero
// value is not usable; call NewVersioned.
type Versioned struct {
	h       Histories
	log     []DeltaEntry // adds for versions floor+1 .. version, in add order
	floor   uint64       // versions ≤ floor have been compacted out of log
	version uint64       // == total distinct (R, Q) entries in h
}

// NewVersioned returns an empty versioned store for an n-process system.
func NewVersioned(n int) *Versioned {
	return &Versioned{h: NewHistories(n)}
}

// Histories exposes the underlying history state for read-only queries
// (distrusts, rendering). Callers must not mutate it directly — mutations
// that bypass Add would desynchronise the version counter.
func (v *Versioned) Histories() Histories { return v.h }

// Version returns the current version: the number of distinct
// (process, quorum) pairs recorded.
func (v *Versioned) Version() uint64 { return v.version }

// Floor returns the compaction floor: DeltaSince(base) for base < floor
// can no longer be answered incrementally.
func (v *Versioned) Floor() uint64 { return v.floor }

// Len returns the number of distinct history entries (== Version, kept as
// a separate accessor so size accounting reads naturally).
func (v *Versioned) Len() int { return int(v.version) }

// Add records that process r saw quorum q. It returns true iff the entry
// is new; only novel entries advance the version. An r outside Π is
// dropped (Histories.Add).
func (v *Versioned) Add(r model.ProcessID, q model.ProcessSet) bool {
	if !v.h.Add(r, q) {
		return false
	}
	v.version++
	v.log = append(v.log, DeltaEntry{R: r, Q: q})
	return true
}

// Import merges a plain history — the inline Fig. 5 history a standalone
// A_nuc's LEAD or PROP carries — returning the number of novel entries.
// Rows run in R order and each set ascends, so the add log gains them in
// (R, Q) order.
func (v *Versioned) Import(other Histories) int {
	novel := 0
	for r, set := range other {
		for _, q := range set {
			if v.Add(model.ProcessID(r), q) {
				novel++
			}
		}
	}
	return novel
}

// ConsideredFaulty delegates to the underlying histories (Fig. 5 line 52).
func (v *Versioned) ConsideredFaulty(p model.ProcessID) model.ProcessSet {
	return v.h.ConsideredFaulty(p)
}

// Distrusts delegates to the underlying histories (Fig. 5 lines 51–53).
func (v *Versioned) Distrusts(p, q model.ProcessID) bool {
	return v.h.Distrusts(p, q)
}

// AppendSince appends the canonical adds needed to bring a receiver from
// sender-side version base up to the current version onto dst, returning
// the extended slice, the To version, and whether the result is a full
// snapshot (base predates the compaction floor, or base is in the future —
// a receiver that never saw this store). The appended tail is sorted by
// (R, Q); dst lets hot callers reuse a scratch buffer.
func (v *Versioned) AppendSince(dst []DeltaEntry, base uint64) ([]DeltaEntry, uint64, bool) {
	if base >= v.version {
		if base > v.version {
			// The peer claims a version we never issued (e.g. after a
			// restart of this store); resynchronise with a snapshot.
			return v.appendSnapshot(dst), v.version, true
		}
		return dst, v.version, false
	}
	if base < v.floor {
		return v.appendSnapshot(dst), v.version, true
	}
	start := len(dst)
	dst = append(dst, v.log[base-v.floor:]...)
	slices.SortFunc(dst[start:], compareEntries)
	return dst, v.version, false
}

// appendSnapshot appends every entry of the store in canonical order:
// rows run in R order and each set ascends, so no sort is needed.
func (v *Versioned) appendSnapshot(dst []DeltaEntry) []DeltaEntry {
	for r, set := range v.h {
		for _, q := range set {
			dst = append(dst, DeltaEntry{R: model.ProcessID(r), Q: q})
		}
	}
	return dst
}

// DeltaSince returns the delta bringing a receiver from base to the
// current version, falling back to a full snapshot (Base == 0) when base
// predates the compaction floor.
func (v *Versioned) DeltaSince(base uint64) Delta {
	adds, to, full := v.AppendSince(nil, base)
	if full {
		base = 0
	}
	return Delta{Base: base, To: to, Adds: adds}
}

// Snapshot returns the full history as an unconditional delta.
func (v *Versioned) Snapshot() Delta {
	return Delta{Base: 0, To: v.version, Adds: v.appendSnapshot(nil)}
}

// Apply merges the delta's adds into the store (set union), returning the
// number of novel entries. Version bookkeeping for the *sender's* To is
// the caller's concern; Apply only advances this store's own version for
// entries it had not seen.
func (v *Versioned) Apply(d Delta) int {
	novel := 0
	for _, e := range d.Adds {
		if v.Add(e.R, e.Q) {
			novel++
		}
	}
	return novel
}

// Compact discards log entries for versions ≤ upTo. After compaction,
// DeltaSince(base) for base < upTo answers with a full snapshot. Callers
// compact up to the minimum version acknowledged (or last shipped) across
// peers so steady-state traffic stays incremental.
func (v *Versioned) Compact(upTo uint64) {
	if upTo > v.version {
		upTo = v.version
	}
	if upTo <= v.floor {
		return
	}
	keep := v.log[upTo-v.floor:]
	// Slide retained entries to the front so the backing array does not
	// pin the compacted prefix.
	n := copy(v.log, keep)
	v.log = v.log[:n]
	v.floor = upTo
}

// Clone deep-copies the store, including the add log: the clone must not
// share backing arrays with the original, because both sides of a fork
// (rsm's logState.CloneState) go on appending and compacting in place.
func (v *Versioned) Clone() *Versioned {
	c := &Versioned{
		h:       v.h.Clone(),
		floor:   v.floor,
		version: v.version,
	}
	if len(v.log) > 0 {
		c.log = append(make([]DeltaEntry, 0, len(v.log)), v.log...)
	}
	return c
}
