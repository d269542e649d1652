// Fixture for locksafe's scope: this package path ends in internal/serve,
// the serving layer, whose ingress queue and applier are shared between
// client goroutines and the replica loop. The lock discipline covers every
// package, so an early return that skips the unlock is flagged here too.
package serve

import "sync"

type Ingress struct {
	mu sync.Mutex
	q  [][]uint64
}

// Poll leaks the lock on the empty-queue path.
func (in *Ingress) Poll() ([]uint64, bool) {
	in.mu.Lock() // want `Lock of in\.mu is not released on every path`
	if len(in.q) == 0 {
		return nil, false
	}
	g := in.q[0]
	in.q = in.q[1:]
	in.mu.Unlock()
	return g, true
}

// Len is the shape the real ingress uses: the deferred unlock covers
// every path.
func (in *Ingress) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.q)
}
