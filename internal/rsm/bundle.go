// Bundles: the payloads one outer step sends to one peer travel as one
// message, and so may the messages of several steps (Log.Merge). The
// substrates charge a receiver one step per message, and an outer step is
// already a finite run of inner steps under one FD value (drain,
// loopback), so a peer may take k payloads that left together as k inner
// steps of one receive. Per-link FIFO order is kept inside the bundle —
// its items are in emission order, and Step takes them in that order — so
// the per-destination delta chain (wrapShared) and every other ordering
// the log relies on is what it was with k messages. DESIGN.md §10
// "Bundles" has the argument.
package rsm

import (
	"strings"

	"nuconsensus/internal/model"
)

// Bundle is the payloads one outer step sends to one peer, in emission
// order, carried as one model.Send (pack), or the payloads of several of a
// link's messages that the cluster driver joined (Log.Merge). Then two
// items may be for one slot, and Step takes them one after the other as
// it would take two messages, with no λ half between. It never nests and
// never supersedes, so an inbox takes every item of one. Nor does it hold a
// superseding payload: no payload the log sends supersedes, and on the
// wire a heartbeat or a DAG snapshot is its frame's only item, so an
// inbox that drops one undecoded drops nothing else.
type Bundle []model.Payload

// Kind implements model.Payload.
func (Bundle) Kind() string { return "BNDL" }

// String implements model.Payload.
func (b Bundle) String() string {
	parts := make([]string, len(b))
	for i, pl := range b {
		parts[i] = pl.String()
	}
	return "BNDL[" + strings.Join(parts, " ") + "]"
}

// Merge implements model.Merger: the items of a and then those of b, as
// one Bundle of exactly their size, so neither operand's backing array is
// shared.
func (*Log) Merge(a, b model.Payload) model.Payload {
	return appendItems(appendItems(make(Bundle, 0, width(a)+width(b)), a), b)
}

// width is the number of items pl carries.
func width(pl model.Payload) int {
	if b, ok := pl.(Bundle); ok {
		return len(b)
	}
	return 1
}

// appendItems appends pl's items to b.
func appendItems(b Bundle, pl model.Payload) Bundle {
	if items, ok := pl.(Bundle); ok {
		return append(b, items...)
	}
	return append(b, pl)
}

// pack folds a step's sends into one per destination: a destination sent
// one payload keeps it bare, and one sent several gets a Bundle of them in
// emission order, at the place of its first send. It runs once per step,
// on everything the step sends (flush), so no send it is handed is a
// Bundle. When no destination repeats, sends is returned untouched;
// otherwise the result reuses its backing array, and each Bundle is one
// allocation of exactly its size.
func pack(sends []model.Send) []model.Send {
	var seen, repeated model.ProcessSet
	for _, snd := range sends {
		if seen.Has(snd.To) {
			repeated = repeated.Add(snd.To)
		}
		seen = seen.Add(snd.To)
	}
	if repeated.IsEmpty() {
		return sends
	}
	var size [model.MaxProcesses]int
	for _, snd := range sends {
		size[snd.To]++
	}
	var bundles [model.MaxProcesses]Bundle
	packed := sends[:0] // never ahead of the range below: one send out per send in at most
	for _, snd := range sends {
		if !repeated.Has(snd.To) {
			packed = append(packed, snd)
			continue
		}
		b := bundles[snd.To]
		if b == nil {
			b = make(Bundle, 0, size[snd.To])
			packed = append(packed, model.Send{To: snd.To}) // filled in below
		}
		bundles[snd.To] = append(b, snd.Payload)
	}
	for i := range packed {
		if packed[i].Payload == nil {
			packed[i].Payload = bundles[packed[i].To]
		}
	}
	return packed
}
