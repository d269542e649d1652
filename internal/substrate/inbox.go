package substrate

import (
	"sync"
	"time"

	"nuconsensus/internal/model"
)

// Inbox is the unbounded per-process mailbox shared by the concurrent
// substrates. Delivery is FIFO per put order (the transports put in send
// order per link, so per-link FIFO follows), with SupersededPayload
// collapsing so DAG snapshot floods cannot deadlock or exhaust memory:
// putting a superseding payload removes the older pending payloads of the
// same kind from the same sender.
//
// The queue is a slice with a head index rather than a reslice-on-take
// ring: Take nils the consumed slot and advances head, and the backing
// array is reused once the queue drains (or compacted when the dead prefix
// dominates), so the put/take steady state allocates nothing.
//
// Its owner waits on it (Wait) when a step found nothing to take: every put
// leaves a wake-up in a one-slot channel after releasing the lock, so a
// waiting owner steps as soon as something arrives. The zero value is an
// empty inbox.
type Inbox struct {
	mu    sync.Mutex
	msgs  []*model.Message
	head  int
	drops int64
	wake  chan struct{} // one slot; made by the first Wait, so the zero value works
	timer *time.Timer   // Wait's bound, reused across waits
}

// NewInboxes allocates one empty inbox per process.
func NewInboxes(n int) []*Inbox {
	inboxes := make([]*Inbox, n)
	for i := range inboxes {
		inboxes[i] = &Inbox{}
	}
	return inboxes
}

// Put enqueues a message, collapsing older superseded payloads from the
// same sender.
func (b *Inbox) Put(m *model.Message) {
	b.mu.Lock()
	b.put(m)
	c := b.wake
	b.mu.Unlock()
	signal(c)
}

// PutBatch enqueues a run of messages under one lock acquisition — the
// transports' readers drain every frame already buffered on a link into
// one batch, so a burst of n frames costs one lock hand-off instead of n.
// The slice is not retained; callers may reuse it.
func (b *Inbox) PutBatch(msgs []*model.Message) {
	if len(msgs) == 0 {
		return
	}
	b.mu.Lock()
	for _, m := range msgs {
		b.put(m)
	}
	c := b.wake
	b.mu.Unlock()
	signal(c)
}

// Wait blocks until a message is pending or d has passed, and reports
// whether an arrival ended it. A message pending when Wait is called ends
// it at once; a put after that check leaves its wake-up in the channel, so
// no arrival is missed. Only the inbox's owner waits, one wait at a time.
func (b *Inbox) Wait(d time.Duration) bool {
	c, t := b.arm(d)
	if c == nil {
		return true
	}
	select {
	case <-c:
		if !t.Stop() {
			select {
			case <-t.C: // fired as the wake-up came: drain it for the next Reset
			default:
			}
		}
		return true
	case <-t.C:
		return false
	}
}

// arm readies a wait of d: it returns the wake-up channel and the started
// timer, or a nil channel when a message is already pending.
func (b *Inbox) arm(d time.Duration) (chan struct{}, *time.Timer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head < len(b.msgs) {
		return nil, nil
	}
	if b.wake == nil {
		b.wake = make(chan struct{}, 1)
	}
	select {
	case <-b.wake: // left by a put whose message has been taken already
	default:
	}
	if b.timer == nil {
		b.timer = time.NewTimer(d)
	} else {
		b.timer.Reset(d)
	}
	return b.wake, b.timer
}

// signal leaves a wake-up unless one is already pending; it never blocks,
// and a nil channel (nobody has waited on the inbox yet) takes none.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// put appends one message, collapsing superseded predecessors. Callers
// hold b.mu.
func (b *Inbox) put(m *model.Message) {
	if _, ok := m.Payload.(model.SupersededPayload); ok {
		kept := b.msgs[b.head:b.head]
		for _, x := range b.msgs[b.head:] {
			if x.From == m.From && x.Payload.Kind() == m.Payload.Kind() {
				b.drops++
				continue // superseded by the newcomer
			}
			kept = append(kept, x)
		}
		// Nil out the tail the filter vacated so dropped messages are not
		// pinned by the backing array.
		for i := b.head + len(kept); i < len(b.msgs); i++ {
			b.msgs[i] = nil
		}
		b.msgs = b.msgs[:b.head+len(kept)]
	}
	b.msgs = append(b.msgs, m)
}

// Take removes and returns the oldest message, or nil.
func (b *Inbox) Take() *model.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head == len(b.msgs) {
		return nil
	}
	m := b.msgs[b.head]
	b.msgs[b.head] = nil
	b.head++
	switch {
	case b.head == len(b.msgs):
		// Drained: rewind onto the same backing array.
		b.msgs = b.msgs[:0]
		b.head = 0
	case b.head >= 64 && b.head*2 >= len(b.msgs):
		// The dead prefix dominates a long queue: compact in place so an
		// always-backlogged inbox cannot grow without bound.
		n := copy(b.msgs, b.msgs[b.head:])
		for i := n; i < len(b.msgs); i++ {
			b.msgs[i] = nil
		}
		b.msgs = b.msgs[:n]
		b.head = 0
	}
	return m
}

// Len reports the number of pending messages.
func (b *Inbox) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.msgs) - b.head
}

// SupersededDrops reports how many pending messages Put collapsed because a
// newer superseding payload of the same kind arrived from the same sender.
func (b *Inbox) SupersededDrops() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}
