package obsclock_test

import (
	"testing"

	"nuconsensus/internal/lint/analysistest"
	"nuconsensus/internal/lint/obsclock"
)

func TestObsclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), obsclock.Analyzer,
		"internal/sim", "internal/check")
}
