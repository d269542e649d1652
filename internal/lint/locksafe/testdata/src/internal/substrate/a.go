// Fixture for locksafe: this package path ends in internal/substrate, a
// concurrent package. Every Lock here is followed by defer Unlock, or
// unlocked later in its block with no early exit between.
package substrate

import (
	"errors"
	"sync"
)

var errBoom = errors.New("boom")

type Cluster struct {
	mu    sync.Mutex
	state int
}

type Registry struct {
	mu sync.RWMutex
	m  map[string]int
}

// leakOnEarlyReturn: the error path returns with the lock held.
func (c *Cluster) leakOnEarlyReturn(fail bool) error {
	c.mu.Lock() // want `Lock of c\.mu is not released on every path`
	if fail {
		return errBoom
	}
	c.mu.Unlock()
	return nil
}

// leakOnPanic: the panic path leaves with the lock held; only a deferred
// unlock would cover it.
func (c *Cluster) leakOnPanic(v int) {
	c.mu.Lock() // want `Lock of c\.mu is not released on every path`
	if v < 0 {
		panic("negative state")
	}
	c.state = v
	c.mu.Unlock()
}

// --- clean patterns the analyzer must not flag ---

// lockWithDefer is the canonical shape: the deferred unlock covers every
// path, early returns and panics included.
func (c *Cluster) lockWithDefer(v int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v < 0 {
		return errBoom
	}
	c.state = v
	return nil
}

// straightLine releases before the function continues: nothing between
// the lock and the unlock can leave the block.
func (r *Registry) straightLine() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	r.mu.Unlock()
	return names
}

// relockPerIteration holds the lock only inside the loop body.
func (c *Cluster) relockPerIteration(n int) {
	for i := 0; i < n; i++ {
		c.mu.Lock()
		c.state++
		c.mu.Unlock()
	}
}

// closureLocks: the goroutine body is its own block with its own
// balanced pair.
func (c *Cluster) closureLocks() {
	go func() {
		c.mu.Lock()
		c.state++
		c.mu.Unlock()
	}()
}

// condLock documents the rule's limit: a lock/unlock pair split across
// two conditionals is in two blocks, so the site says why and moves on.
func (c *Cluster) condLock(use bool) {
	if use {
		//lint:allow locksafe pair is split across correlated conditionals, beyond the one-block rule
		c.mu.Lock()
	}
	c.state++
	if use {
		c.mu.Unlock()
	}
}
