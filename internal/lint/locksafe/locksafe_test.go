package locksafe_test

import (
	"testing"

	"nuconsensus/internal/lint/analysistest"
	"nuconsensus/internal/lint/locksafe"
)

func TestLocksafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), locksafe.Analyzer,
		"internal/substrate", "internal/serve")
}
