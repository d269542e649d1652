package locksafe_test

import (
	"testing"

	"nuconsensus/internal/lint/analysistest"
	"nuconsensus/internal/lint/locksafe"
)

func TestLocksafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), locksafe.Analyzer,
		"internal/substrate")
}

// TestScopeNamesConcurrentPackages is the meta-test: the lock
// discipline covers exactly the packages whose goroutines share
// mutex-guarded state, and the list only names packages that carry that
// risk today.
func TestScopeNamesConcurrentPackages(t *testing.T) {
	for path, want := range map[string]bool{
		"nuconsensus/internal/substrate": true,
		"nuconsensus/internal/netrun":    true,
		"nuconsensus/internal/obs":       true,
		"nuconsensus/internal/model":     false, // pure data, no goroutines
		"nuconsensus/internal/wire":      false, // pools, but no mutex-guarded state
		"nuconsensus/internal/lint":      false,
	} {
		if got := locksafe.Covered(path); got != want {
			t.Errorf("Covered(%q) = %v, want %v", path, got, want)
		}
	}
}
