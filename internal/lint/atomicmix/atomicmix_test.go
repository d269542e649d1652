package atomicmix_test

import (
	"testing"

	"nuconsensus/internal/lint/analysistest"
	"nuconsensus/internal/lint/atomicmix"
)

func TestAtomicmix(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), atomicmix.Analyzer,
		"internal/obs")
}

// TestScopeFollowsLockDiscipline is the meta-test: atomics matter
// exactly where goroutines share mutable state, so the atomicmix scope
// is pinned to the same concurrent-package list locksafe covers.
func TestScopeFollowsLockDiscipline(t *testing.T) {
	for path, want := range map[string]bool{
		"nuconsensus/internal/obs":       true,
		"nuconsensus/internal/substrate": true,
		"nuconsensus/internal/netrun":    true,
		"nuconsensus/internal/model":     false,
		"nuconsensus/internal/wire":      false,
	} {
		if got := atomicmix.Covered(path); got != want {
			t.Errorf("Covered(%q) = %v, want %v", path, got, want)
		}
	}
}
