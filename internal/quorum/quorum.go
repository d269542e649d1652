// Package quorum implements the quorum-history machinery of the paper's
// consensus algorithm A_nuc (Figs. 4–5): the per-process history variable
// H_p (all quorums of each process that p knows about), the set F_p of
// processes p considers faulty, and the distrusts predicate (lines 51–53).
// A quorum set is a sorted slice, so everything that walks one — the
// distrusts scan, the wire codec, a delta snapshot — sees the one order its
// value has, and nothing sorts on read.
package quorum

import (
	"fmt"
	"slices"
	"strings"

	"nuconsensus/internal/model"
)

// Set is a set of quorums (process sets), held as a strictly ascending
// slice, so every reader sees one order and no reader sorts. The zero value
// is the empty set and is ready for writes. A Set is a value: a copy does
// not see later adds to its source, so mutations go through the slot that
// holds it (h[r].Add, Histories.Add).
type Set []model.ProcessSet

// NewSet returns a quorum set containing the given quorums.
func NewSet(qs ...model.ProcessSet) Set {
	var s Set
	for _, q := range qs {
		s.Add(q)
	}
	return s
}

// Add inserts q, reporting whether it was new.
func (s *Set) Add(q model.ProcessSet) bool {
	i, found := slices.BinarySearch(*s, q)
	if found {
		return false
	}
	*s = slices.Insert(*s, i, q)
	return true
}

// Has reports whether q ∈ s.
func (s Set) Has(q model.ProcessSet) bool {
	_, found := slices.BinarySearch(s, q)
	return found
}

// Union inserts all quorums of t into s.
func (s *Set) Union(t Set) {
	for _, q := range t {
		s.Add(q)
	}
}

// Clone returns a copy of s that shares no memory with it.
func (s Set) Clone() Set { return slices.Clone(s) }

// DisjointFrom reports whether some quorum in s is disjoint from some
// quorum in t.
func (s Set) DisjointFrom(t Set) bool {
	for _, a := range s {
		for _, b := range t {
			if !a.Intersects(b) {
				return true
			}
		}
	}
	return false
}

// Histories is the variable H_p of A_nuc: Histories[r] contains all the
// quorums of process r that the owner knows about. It is indexed by the
// full Π of the system.
type Histories []Set

// NewHistories returns empty histories for an n-process system
// (H_p[q] ← ∅ for all q, Fig. 4 lines 5–6).
func NewHistories(n int) Histories { return make(Histories, n) }

// Add records that process r saw quorum q, reporting whether it was new.
// An r outside Π — a received history's row past this system's n — names
// no process any query asks about, so it is dropped and is not new.
func (h Histories) Add(r model.ProcessID, q model.ProcessSet) bool {
	if int(r) >= len(h) {
		return false
	}
	return h[r].Add(q)
}

// Import merges another history into h (procedure import_history, Fig. 5
// lines 44–46). Rows of other past h's n are dropped, as in Add.
func (h Histories) Import(other Histories) {
	for r := range min(len(h), len(other)) {
		h[r].Union(other[r])
	}
}

// Clone deep-copies h. Messages carry cloned histories: the paper's
// messages contain the value of H_p at send time.
func (h Histories) Clone() Histories {
	c := make(Histories, len(h))
	for i := range h {
		c[i] = h[i].Clone()
	}
	return c
}

// ConsideredFaulty computes F_p for owner p (Fig. 5 line 52): the set of
// processes q' for which some quorum in H_p[q'] is disjoint from some
// quorum in H_p[p]. By the nonuniform intersection property of Σν+, p then
// knows that either it or q' is faulty — and in nonuniform consensus it is
// safe for p to consider itself correct.
func (h Histories) ConsideredFaulty(p model.ProcessID) model.ProcessSet {
	var f model.ProcessSet
	own := h[p]
	for r := range h {
		if h[r].DisjointFrom(own) {
			f = f.Add(model.ProcessID(r))
		}
	}
	return f
}

// Distrusts implements function distrusts(q) (Fig. 5 lines 51–53): p
// distrusts q iff there is a process r ∉ F_p such that H_p[q] and H_p[r]
// contain nonintersecting quorums.
func (h Histories) Distrusts(p, q model.ProcessID) bool {
	fp := h.ConsideredFaulty(p)
	for r := range h {
		if fp.Has(model.ProcessID(r)) {
			continue
		}
		if h[q].DisjointFrom(h[r]) {
			return true
		}
	}
	return false
}

// String renders the nonempty entries of h.
func (h Histories) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for r := range h {
		if len(h[r]) == 0 {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "p%d:%v", r, h[r])
	}
	b.WriteByte(']')
	return b.String()
}
