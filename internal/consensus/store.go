package consensus

import (
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
)

// HistoryStore abstracts the quorum-history variable H_p of A_nuc so the
// state can either own its histories (the paper's single-instance shape —
// the default, byte-identical to the pre-interface behavior) or share one
// per-process store across many slot instances (internal/rsm). History
// entries are global facts — "process r saw quorum q" — so sharing only
// makes the distrusts predicate better informed; it never unsays anything.
type HistoryStore interface {
	// Add records that process r saw quorum q (Fig. 5 line 49 for r == p,
	// Fig. 4 line 36 for SAW senders).
	Add(r model.ProcessID, q model.ProcessSet)
	// Has reports whether the store already records that r saw q: an Add
	// of it would change nothing.
	Has(r model.ProcessID, q model.ProcessSet) bool
	// Import merges a received history (procedure import_history, Fig. 5
	// lines 44–46). A nil argument is a no-op: delta-mode payloads carry
	// no inline histories because the transport applied them already.
	Import(h quorum.Histories)
	// Distrusts is the distrusts(q) predicate (Fig. 5 lines 51–53).
	Distrusts(p, q model.ProcessID) bool
	// ConsideredFaulty is F_p (Fig. 5 line 52).
	ConsideredFaulty(p model.ProcessID) model.ProcessSet
	// Outgoing returns the history snapshot a LEAD/PROP payload should
	// carry inline: a clone for owned stores, nil for shared stores whose
	// transport ships versioned deltas out-of-band instead.
	Outgoing() quorum.Histories
	// CloneStore is the store's half of the owning state's CloneState — the
	// fork a caller takes before stepping a state it wants to keep. Owned
	// stores deep-copy; a shared store returns itself and relies on its
	// owner (the rsm log state) to clone it once per fork and rebind.
	CloneStore() HistoryStore
}

// StoreBound is implemented by states whose history store can be rebound
// after a clone. When the rsm log state is forked it clones its shared
// store once and rebinds every cloned slot instance to the copy.
type StoreBound interface {
	BindStore(HistoryStore)
}

// AwarenessSeeded is implemented by states that a multi-instance host can
// hand, before their first step, a quorum q every member of which is known
// to have recorded (p, q) in its own history before the host let it create
// its instance of this consensus (internal/rsm's awareness record). The
// state then starts with sent_p[q] = true and seen_p[q] = 0 — "acknowledged
// before round 1" — and Fig. 4 runs unchanged: line 30 still tests
// seen_p[Q_p] < k_p, and a quorum that was not seeded still takes lines
// 31–42.
type AwarenessSeeded interface {
	SeedAcknowledged(q model.ProcessSet)
}

// ownedHistories is the default HistoryStore: a private quorum.Histories,
// cloned on CloneStore and on every Outgoing snapshot — exactly the
// pre-HistoryStore semantics and bytes.
type ownedHistories struct {
	h quorum.Histories
}

func newOwnedHistories(n int) *ownedHistories {
	return &ownedHistories{h: quorum.NewHistories(n)}
}

func (o *ownedHistories) Add(r model.ProcessID, q model.ProcessSet) { o.h.Add(r, q) }

func (o *ownedHistories) Has(r model.ProcessID, q model.ProcessSet) bool { return o.h[r].Has(q) }

func (o *ownedHistories) Import(h quorum.Histories) {
	if h != nil {
		o.h.Import(h)
	}
}

func (o *ownedHistories) Distrusts(p, q model.ProcessID) bool { return o.h.Distrusts(p, q) }

func (o *ownedHistories) ConsideredFaulty(p model.ProcessID) model.ProcessSet {
	return o.h.ConsideredFaulty(p)
}

func (o *ownedHistories) Outgoing() quorum.Histories { return o.h.Clone() }

func (o *ownedHistories) CloneStore() HistoryStore { return &ownedHistories{h: o.h.Clone()} }
