package rsm

import (
	"testing"

	"nuconsensus/internal/model"
)

// TestQuietPredicate pins the gate itself: a decided instance sleeps iff
// its round is strictly above everything heard, in its slot, from each
// other process not known to have passed the slot.
func TestQuietPredicate(t *testing.T) {
	const self, slot = model.ProcessID(1), 5
	cases := []struct {
		name     string
		decided  bool
		own      int
		progress []int
		heard    []int
		want     bool
	}{
		{"undecided never sleeps", false, 9, []int{6, 6, 6, 6}, nil, false},
		{"everyone else passed", true, 2, []int{6, 5, 6, 9}, []int{7, 7, 7, 7}, true},
		{"everyone else passed, not yet started", true, 0, []int{6, 5, 6, 9}, nil, true},
		{"never heard counts as round 0: nil row", true, 1, []int{0, 6, 6, 6}, nil, true},
		{"never heard counts as round 0: zero entry", true, 1, []int{0, 6, 6, 6}, []int{0, 4, 4, 4}, true},
		{"round 0 is not ahead of silence", true, 0, []int{0, 6, 6, 6}, nil, false},
		{"one round ahead", true, 4, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, true},
		{"two rounds ahead", true, 5, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, true},
		{"level with the laggard", true, 3, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, false},
		{"behind the laggard", true, 2, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, false},
		{"progress equal to the slot has not passed it", true, 3, []int{6, 6, 5, 6}, []int{0, 0, 3, 0}, false},
		{"progress one beyond the slot has", true, 3, []int{6, 6, 6, 6}, []int{0, 0, 3, 0}, true},
		{"ahead of one laggard, level with the other", true, 5, []int{2, 6, 6, 5}, []int{1, 0, 0, 5}, false},
		{"ahead of both", true, 6, []int{2, 6, 6, 5}, []int{1, 0, 0, 5}, true},
		{"own entry ignored: not passed, heard high", true, 1, []int{6, 3, 6, 6}, []int{0, 9, 0, 0}, true},
		{"a passed process's heard round is ignored", true, 1, []int{6, 6, 6, 6}, []int{9, 9, 9, 9}, true},
	}
	for _, c := range cases {
		if got := quiet(c.decided, c.own, self, slot, c.progress, c.heard); got != c.want {
			t.Errorf("%s: quiet(decided=%v, own=%d, progress=%v, heard=%v) = %v, want %v",
				c.name, c.decided, c.own, c.progress, c.heard, got, c.want)
		}
	}
}
