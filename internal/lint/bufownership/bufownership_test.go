package bufownership_test

import (
	"testing"

	"nuconsensus/internal/lint/analysistest"
	"nuconsensus/internal/lint/bufownership"
)

func TestBufownership(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bufownership.Analyzer,
		"internal/netrun")
}

// TestPoolShape runs the pool-shape rule's fixture: a sync.Pool's New
// hook and every Put must carry a pointer-free *[]T.
func TestPoolShape(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bufownership.Analyzer,
		"internal/wire")
}
