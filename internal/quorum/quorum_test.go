package quorum

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nuconsensus/internal/model"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(model.SetOf(0, 1), model.SetOf(2))
	if !s.Has(model.SetOf(0, 1)) || !s.Has(model.SetOf(2)) {
		t.Fatal("NewSet lost members")
	}
	if s.Add(model.SetOf(0, 1)) || len(s) != 2 { // idempotent
		t.Fatalf("a repeated Add reported novelty or grew the set: %v", s)
	}
	u := NewSet(model.SetOf(3))
	s.Union(u)
	if !s.Has(model.SetOf(3)) {
		t.Error("Union missed a quorum")
	}

	c := s.Clone()
	c.Add(model.SetOf(0, 3))
	if s.Has(model.SetOf(0, 3)) {
		t.Error("mutating a clone must not affect the original")
	}

	var zero Set
	if zero.Has(model.SetOf(0)) || !zero.Add(model.SetOf(0)) || !zero.Has(model.SetOf(0)) {
		t.Error("the zero Set must be empty and ready for writes")
	}
}

// sortedSet is the brute-force model of a Set: qs sorted, duplicates
// dropped.
func sortedSet(qs ...[]model.ProcessSet) []model.ProcessSet {
	var all []model.ProcessSet
	for _, q := range qs {
		all = append(all, q...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// TestSetProperties checks Set against its brute-force model over a table
// of fixed and random inputs, each added in its own (random) order: Add
// and Union hold the sorted, deduplicated inputs, Add reports novelty, a
// Clone does not see later adds to its source, DisjointFrom agrees with a
// loop over the inputs, and a Versioned store's add log after Import, and
// its Snapshot, are in (R, Q) order.
func TestSetProperties(t *testing.T) {
	type tc struct {
		name     string
		a, b     []model.ProcessSet
		disjoint bool // DisjointFrom(a, b), for the fixed rows
	}
	cases := []tc{
		{"empty", nil, nil, false},
		{"empty against one", nil, []model.ProcessSet{model.SetOf(0)}, false},
		{"every pair intersects",
			[]model.ProcessSet{model.SetOf(0, 1), model.SetOf(1, 2)},
			[]model.ProcessSet{model.SetOf(1), model.SetOf(0, 2, 3)}, false},
		{"one disjoint pair",
			[]model.ProcessSet{model.SetOf(0, 1), model.SetOf(1, 2)},
			[]model.ProcessSet{model.SetOf(1), model.SetOf(0, 2, 3), model.SetOf(3)}, true},
		{"repeats", []model.ProcessSet{5, 3, 5, 1, 3}, []model.ProcessSet{2, 2}, true},
	}
	fixed := len(cases)
	rng := rand.New(rand.NewSource(3))
	draw := func() []model.ProcessSet {
		qs := make([]model.ProcessSet, rng.Intn(9))
		for i := range qs {
			qs[i] = model.ProcessSet(rng.Intn(16))
		}
		return qs
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, tc{name: fmt.Sprintf("random %d", i), a: draw(), b: draw()})
	}

	for i, c := range cases {
		var s Set
		seen := map[model.ProcessSet]bool{}
		for _, q := range c.a {
			if novel := s.Add(q); novel == seen[q] {
				t.Errorf("%s: Add(%v) reported novelty %v", c.name, q, novel)
			}
			seen[q] = true
		}
		if want := sortedSet(c.a); !slices.Equal(s, want) {
			t.Errorf("%s: Add gave %v, want %v", c.name, s, want)
		}
		shuffled := slices.Clone(c.a)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := NewSet(shuffled...); !slices.Equal(got, s) {
			t.Errorf("%s: add order moved the set: %v vs %v", c.name, got, s)
		}

		clone := s.Clone()
		s.Union(NewSet(c.b...))
		if want := sortedSet(c.a, c.b); !slices.Equal(s, want) {
			t.Errorf("%s: Union gave %v, want %v", c.name, s, want)
		}
		if want := sortedSet(c.a); !slices.Equal(clone, want) {
			t.Errorf("%s: clone %v saw its source's later adds, want %v", c.name, clone, want)
		}

		brute := false
		for _, x := range c.a {
			for _, y := range c.b {
				brute = brute || !x.Intersects(y)
			}
		}
		got := NewSet(c.a...).DisjointFrom(NewSet(c.b...))
		if got != brute || (i < fixed && got != c.disjoint) {
			t.Errorf("%s: DisjointFrom = %v, brute force %v", c.name, got, brute)
		}

		h := NewHistories(3)
		for _, q := range shuffled {
			h.Add(0, q)
		}
		for _, q := range c.b {
			h.Add(2, q)
		}
		v := NewVersioned(3)
		v.Import(h)
		if !strictlyAscending(v.log) {
			t.Errorf("%s: add log after Import %v is not in strict (R, Q) order", c.name, v.log)
		}
		for _, q := range shuffled { // out of order: the log keeps add order
			v.Add(1, q)
		}
		if snap := v.Snapshot().Adds; len(snap) != v.Len() || !strictlyAscending(snap) {
			t.Errorf("%s: Snapshot %v is not the store's %d entries in strict (R, Q) order", c.name, snap, v.Len())
		}
	}
}

func strictlyAscending(adds []DeltaEntry) bool {
	for i := 1; i < len(adds); i++ {
		if compareEntries(adds[i-1], adds[i]) >= 0 {
			return false
		}
	}
	return true
}

func TestHistoriesImportClone(t *testing.T) {
	h := NewHistories(3)
	h.Add(0, model.SetOf(0, 1))
	h.Add(2, model.SetOf(2))

	other := NewHistories(3)
	other.Add(1, model.SetOf(1, 2))
	h.Import(other)
	if !h[1].Has(model.SetOf(1, 2)) {
		t.Error("Import missed an entry")
	}

	c := h.Clone()
	c.Add(0, model.SetOf(0))
	if h[0].Has(model.SetOf(0)) {
		t.Error("clone mutation leaked to the original")
	}
	if h.String() == "" {
		t.Error("String must render")
	}
}

// TestDistrustsPaperScenario replays the §6.3 reasoning:
//
//   - p0 (correct) has seen its own quorum {p0,p1};
//   - p2 (faulty) saw quorum {p2}, disjoint from p0's — so p0 considers p2
//     faulty (F_p0 = {p2}) and, since p0 does not consider ITSELF faulty,
//     p0 distrusts p2;
//   - p0 never distrusts p1, whose quorums intersect everything p0 has
//     from non-considered-faulty processes.
func TestDistrustsPaperScenario(t *testing.T) {
	h := NewHistories(3)
	h.Add(0, model.SetOf(0, 1)) // p0's own quorum
	h.Add(1, model.SetOf(0, 1)) // p1's quorum
	h.Add(2, model.SetOf(2))    // faulty p2's junk quorum

	if got := h.ConsideredFaulty(0); got != model.SetOf(2) {
		t.Fatalf("F_p0 = %v, want {p2}", got)
	}
	if !h.Distrusts(0, 2) {
		t.Error("p0 must distrust p2")
	}
	if h.Distrusts(0, 1) {
		t.Error("p0 must not distrust p1")
	}
	// Lemma 6.20: p never considers itself faulty here (self-inclusion).
	if h.ConsideredFaulty(0).Has(0) {
		t.Error("p0 must not consider itself faulty")
	}
}

// TestDistrustsConditional covers the subtler case: p0 considers p2 faulty,
// and p2's quorum is also disjoint from p3's quorum; since p2 ∈ F_p0 and
// p3 ∉ F_p0, p0 distrusts p2 but NOT p3 (the r in the definition must be
// outside F_p).
func TestDistrustsConditional(t *testing.T) {
	h := NewHistories(4)
	h.Add(0, model.SetOf(0, 1))
	h.Add(2, model.SetOf(2))    // disjoint from p0's own → p2 ∈ F_p0
	h.Add(3, model.SetOf(0, 3)) // intersects p0's own → p3 ∉ F_p0

	if got := h.ConsideredFaulty(0); got != model.SetOf(2) {
		t.Fatalf("F_p0 = %v", got)
	}
	if !h.Distrusts(0, 2) {
		t.Error("p2's quorum conflicts with p3 ∉ F_p0: must distrust p2")
	}
	if h.Distrusts(0, 3) {
		t.Error("p3's only conflict is with p2 ∈ F_p0: must not distrust p3")
	}
}

func TestDistrustsEmptyHistories(t *testing.T) {
	h := NewHistories(3)
	if h.Distrusts(0, 1) || h.Distrusts(0, 0) {
		t.Error("no quorums, no distrust")
	}
}

// TestImportIdempotentCommutative uses testing/quick: importing histories
// is idempotent and order-independent.
func TestImportIdempotentCommutative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	gen := func(r *rand.Rand) Histories {
		h := NewHistories(4)
		for i := 0; i < r.Intn(6); i++ {
			h.Add(model.ProcessID(r.Intn(4)), model.ProcessSet(r.Uint64()%16))
		}
		return h
	}
	// Sets are sorted values, so equal histories are equal row by row.
	equal := func(a, b Histories) bool {
		return slices.EqualFunc(a, b, func(x, y Set) bool { return slices.Equal(x, y) })
	}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)

		ab := a.Clone()
		ab.Import(b)
		ab.Import(b) // idempotent
		ab2 := a.Clone()
		ab2.Import(b)

		ba := b.Clone()
		ba.Import(a)
		return equal(ab, ab2) && equal(ab, ba)
	}, cfg); err != nil {
		t.Error(err)
	}
}
