package main

import (
	"math"
	"testing"
)

// TestMixSendsEveryWrite drives a session's window with no sockets: each
// pass fills the window (mix.fill) and then one reply frees one place. At
// every window and read fraction the session sends all its writes in a
// bounded number of passes, and its reads are the read fraction of its
// requests. A read credit added on every pass of the fill, instead of once
// per write sent, sends only reads at window 1 and read fraction 0.5 or
// more, and the run never ends.
func TestMixSendsEveryWrite(t *testing.T) {
	const writes = 400
	for _, window := range []int{1, 4} {
		for _, rf := range []float64{0, 0.3, 0.5, 0.9} {
			m := newMix(rf)
			outstanding, sent, reads, passes := 0, 0, 0, 0
			for sent < writes || outstanding > 0 {
				if passes++; passes > 20*writes {
					t.Fatalf("window %d, read fraction %g: %d of %d writes sent after %d passes", window, rf, sent, writes, passes)
				}
				n, err := m.fill(outstanding, window, writes-sent, func(read bool) error {
					if read {
						reads++
					}
					outstanding++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				sent += n
				if outstanding > window {
					t.Fatalf("window %d, read fraction %g: %d requests outstanding", window, rf, outstanding)
				}
				outstanding-- // one reply
			}
			if got := float64(reads) / float64(reads+sent); sent != writes || math.Abs(got-rf) > 0.01 {
				t.Errorf("window %d, read fraction %g: %d writes and %d reads (fraction %.3f), want %d writes", window, rf, sent, reads, got, writes)
			}
		}
	}
}
