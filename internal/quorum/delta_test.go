package quorum

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nuconsensus/internal/model"
)

func TestVersionedAddAndVersion(t *testing.T) {
	v := NewVersioned(3)
	if v.Version() != 0 || v.Len() != 0 {
		t.Fatalf("empty store: version=%d len=%d", v.Version(), v.Len())
	}
	if !v.Add(0, model.SetOf(0, 1)) {
		t.Fatal("first add must be novel")
	}
	if v.Add(0, model.SetOf(0, 1)) {
		t.Fatal("duplicate add must not be novel")
	}
	if v.Version() != 1 {
		t.Fatalf("version after dup = %d, want 1", v.Version())
	}
	v.Add(1, model.SetOf(1, 2))
	v.Add(2, model.SetOf(0, 2))
	if v.Version() != 3 || v.Len() != 3 {
		t.Fatalf("version=%d len=%d, want 3", v.Version(), v.Len())
	}
	if !v.Histories()[1].Has(model.SetOf(1, 2)) {
		t.Error("Add must reach the underlying histories")
	}
}

func TestVersionedDeltaSinceChains(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	v.Add(1, model.SetOf(1, 2))
	mid := v.Version()
	v.Add(2, model.SetOf(0, 2))
	v.Add(0, model.SetOf(0, 2))

	d := v.DeltaSince(mid)
	if d.Base != mid || d.To != v.Version() || d.IsSnapshot() {
		t.Fatalf("delta = %v", d)
	}
	want := []DeltaEntry{{R: 0, Q: model.SetOf(0, 2)}, {R: 2, Q: model.SetOf(0, 2)}}
	if !reflect.DeepEqual(d.Adds, want) {
		t.Fatalf("Adds = %v, want %v", d.Adds, want)
	}

	// Applying the chain delta to a replica at version mid converges it.
	r := NewVersioned(3)
	r.Apply(v.DeltaSince(0))
	if r.Histories().String() != v.Histories().String() {
		t.Fatalf("full chain apply diverged: %s vs %s", r.Histories(), v.Histories())
	}
}

func TestVersionedDeltaEmptyWhenCurrent(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	d := v.DeltaSince(v.Version())
	if len(d.Adds) != 0 || d.Base != v.Version() || d.To != v.Version() {
		t.Fatalf("delta at head = %v", d)
	}
}

func TestVersionedSnapshotFallbackAfterCompact(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	v.Add(1, model.SetOf(1, 2))
	v.Add(2, model.SetOf(0, 2))
	v.Compact(2)
	if v.Floor() != 2 {
		t.Fatalf("floor = %d, want 2", v.Floor())
	}

	// base 2 is still answerable incrementally.
	d := v.DeltaSince(2)
	if d.IsSnapshot() || len(d.Adds) != 1 {
		t.Fatalf("post-compact incremental delta = %v", d)
	}

	// base 1 predates the floor: full snapshot fallback.
	d = v.DeltaSince(1)
	if !d.IsSnapshot() {
		t.Fatalf("want snapshot, got %v", d)
	}
	if len(d.Adds) != 3 || d.To != 3 {
		t.Fatalf("snapshot = %v", d)
	}
	if !slices.IsSortedFunc(d.Adds, compareEntries) {
		t.Error("snapshot adds must be canonically sorted")
	}
	r := NewVersioned(3)
	r.Apply(d)
	if r.Histories().String() != v.Histories().String() {
		t.Error("snapshot apply diverged")
	}
}

func TestVersionedFutureBaseResyncs(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	d := v.DeltaSince(99) // peer claims a version this store never issued
	if !d.IsSnapshot() || len(d.Adds) != 1 {
		t.Fatalf("future base must snapshot, got %v", d)
	}
}

func TestVersionedCompactIdempotentAndBounded(t *testing.T) {
	v := NewVersioned(3)
	for i := 0; i < 5; i++ {
		v.Add(model.ProcessID(i%3), model.SetOf(model.ProcessID(i%3), model.ProcessID((i+1)%3)))
	}
	n := v.Version()
	v.Compact(n + 10) // clamped to version
	if v.Floor() != n {
		t.Fatalf("floor = %d, want %d", v.Floor(), n)
	}
	v.Compact(1) // below floor: no-op
	if v.Floor() != n {
		t.Fatalf("floor moved backwards: %d", v.Floor())
	}
	d := v.DeltaSince(n)
	if len(d.Adds) != 0 {
		t.Fatalf("head delta after full compact = %v", d)
	}
}

func TestVersionedImportDedups(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	other := NewHistories(3)
	other.Add(0, model.SetOf(0, 1)) // already known
	other.Add(1, model.SetOf(1, 2))
	if novel := v.Import(other); novel != 1 {
		t.Fatalf("novel = %d, want 1", novel)
	}
	if v.Version() != 2 {
		t.Fatalf("version = %d, want 2", v.Version())
	}
}

func TestVersionedCloneIsolated(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	v.Add(1, model.SetOf(1, 2))
	c := v.Clone()
	c.Add(2, model.SetOf(0, 2))
	if v.Version() != 2 || c.Version() != 3 {
		t.Fatalf("versions: orig=%d clone=%d", v.Version(), c.Version())
	}
	if v.Histories()[2].Has(model.SetOf(0, 2)) {
		t.Error("clone mutation leaked into original histories")
	}
	// The add logs must not share a backing array.
	d := v.DeltaSince(0)
	if len(d.Adds) != 2 {
		t.Fatalf("orig delta = %v", d)
	}
}

func TestVersionedAppendSinceReusesScratch(t *testing.T) {
	v := NewVersioned(3)
	v.Add(0, model.SetOf(0, 1))
	v.Add(1, model.SetOf(1, 2))
	scratch := make([]DeltaEntry, 0, 8)
	adds, to, full := v.AppendSince(scratch, 0)
	if full || to != 2 || len(adds) != 2 {
		t.Fatalf("AppendSince = %v to=%d full=%v", adds, to, full)
	}
	if &adds[0] != &scratch[:1][0] {
		t.Error("AppendSince must append into the provided scratch")
	}
}

// TestVersionedConvergesUnderRandomExchange drives two stores with random
// interleaved adds and delta exchange (including compaction-forced
// snapshots) and checks they always converge to the same histories.
func TestVersionedConvergesUnderRandomExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 4
	a, b := NewVersioned(n), NewVersioned(n)
	var aSent, bSent uint64
	for step := 0; step < 400; step++ {
		r := model.ProcessID(rng.Intn(n))
		q := model.SetOf(model.ProcessID(rng.Intn(n)), model.ProcessID(rng.Intn(n)))
		switch rng.Intn(4) {
		case 0:
			a.Add(r, q)
		case 1:
			b.Add(r, q)
		case 2: // a ships a delta to b
			d := a.DeltaSince(aSent)
			b.Apply(d)
			aSent = d.To
			if rng.Intn(3) == 0 {
				a.Compact(aSent)
			}
		case 3: // b ships a delta to a
			d := b.DeltaSince(bSent)
			a.Apply(d)
			bSent = d.To
			if rng.Intn(3) == 0 {
				b.Compact(bSent)
			}
		}
	}
	// Final flush both ways.
	b.Apply(a.DeltaSince(aSent))
	a.Apply(b.DeltaSince(bSent))
	if a.Histories().String() != b.Histories().String() {
		t.Fatalf("stores diverged:\n a=%s\n b=%s", a.Histories(), b.Histories())
	}
}

// TestDeltaSpansExactlyItsAdds: every delta DeltaSince returns has
// To − Base == len(Adds) — incremental, empty at the head, the snapshot
// after Compact, and the snapshot for a base beyond the version — which is
// what lets the wire frame leave Base out and rebuild it from To and the
// add count.
func TestDeltaSpansExactlyItsAdds(t *testing.T) {
	v := NewVersioned(4)
	check := func(what string, base uint64) {
		t.Helper()
		d := v.DeltaSince(base)
		if d.Base > d.To || d.To-d.Base != uint64(len(d.Adds)) {
			t.Errorf("%s (base %d): %v spans %d versions with %d adds", what, base, d, d.To-d.Base, len(d.Adds))
		}
	}
	check("empty store", 0)
	check("empty store, future base", 3)
	for i, q := range []model.ProcessSet{model.SetOf(0, 1), model.SetOf(1, 2), model.SetOf(0, 2), model.SetOf(2, 3), model.SetOf(0, 3)} {
		v.Add(model.ProcessID(i%4), q)
		v.Add(model.ProcessID(i%4), q) // a repeat adds no version
		for base := uint64(0); base <= v.Version(); base++ {
			check("incremental", base)
		}
	}
	v.Compact(3)
	for base := uint64(0); base <= v.Version()+2; base++ {
		check("after Compact(3)", base) // snapshots below the floor and beyond the version
	}
	if d := v.DeltaSince(1); !d.IsSnapshot() {
		t.Errorf("DeltaSince(1) below the floor is %v, want a snapshot", d)
	}
	if d := v.DeltaSince(v.Version() + 1); !d.IsSnapshot() {
		t.Errorf("DeltaSince beyond the version is %v, want a snapshot", d)
	}
	check("snapshot", 0)
	if d := v.Snapshot(); d.To-d.Base != uint64(len(d.Adds)) {
		t.Errorf("Snapshot() = %v does not span exactly its adds", d)
	}
}
