package serve

import (
	"slices"
	"sync"
)

// Ingress is the hand-off between a node's client front end (cmd/nucd's
// connection goroutines) and its stepping replica: the front end pushes
// groups of commands, and the replica seals the oldest of them into its
// next batch when the log is free (Replica.Step). On the sim substrate the
// queue is filled between steps, so sealing stays deterministic.
type Ingress struct {
	mu sync.Mutex
	q  [][]Command
}

// Push enqueues one group of commands. A group is never split: it rides
// one batch, possibly together with the groups pushed next to it.
func (in *Ingress) Push(cmds []Command) {
	if len(cmds) == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.q = append(in.q, cmds)
}

// seal removes and returns the oldest group plus every whole group after
// it while the total stays within limit commands (limit 0: the oldest group
// alone), or nil when nothing is queued.
func (in *Ingress) seal(limit int) []Command {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.q) == 0 {
		return nil
	}
	k, total := 1, len(in.q[0])
	for ; k < len(in.q) && total+len(in.q[k]) <= limit; k++ {
		total += len(in.q[k])
	}
	cmds := slices.Concat(in.q[:k]...)
	in.q = in.q[k:]
	return cmds
}

// Len returns how many commands are waiting.
func (in *Ingress) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, g := range in.q {
		n += len(g)
	}
	return n
}
