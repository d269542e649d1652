package obs

import "sync"

// Ring is the in-memory sink: a fixed-capacity ring buffer keeping the
// most recent events (capacity <= 0 means unbounded — the engine uses that
// to collect a unit's full log before writing it in canonical order).
// Overwritten events are counted, never silently lost from the accounting.
type Ring struct {
	mu      sync.Mutex
	cap     int
	buf     []Event
	start   int // index of the oldest event when the ring has wrapped
	wrapped bool
	dropped int64
}

// NewRing returns a ring sink holding at most capacity events (<= 0 for
// unbounded).
func NewRing(capacity int) *Ring { return &Ring{cap: capacity} }

// Emit implements Sink.
func (r *Ring) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cap <= 0 {
		r.buf = append(r.buf, ev)
		return
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % r.cap
	r.wrapped = true
	r.dropped++
}

// Close implements Sink (no-op: the ring holds memory only).
func (r *Ring) Close() error { return nil }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		out := make([]Event, len(r.buf))
		copy(out, r.buf)
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Dropped reports how many events were overwritten by capacity pressure.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Collector is the selective in-memory sink: it keeps, in emission order,
// the events of the kinds it was built for and drops every other, so a
// caller that wants a run's detector samples (KindFDQuery) or emulated
// outputs (KindFDOutput) does not retain an unbounded Ring of every step,
// send and deliver. Whether a run keeps its samples is whether one of
// these is attached to its bus.
type Collector struct {
	keep [numKinds]bool
	buf  []Event
}

// NewCollector returns a sink retaining only events of the given kinds.
func NewCollector(kinds ...Kind) *Collector {
	c := &Collector{}
	for _, k := range kinds {
		c.keep[k] = true
	}
	return c
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	if c.keep[ev.Kind] {
		c.buf = append(c.buf, ev)
	}
}

// Close implements Sink (no-op: the collector holds memory only).
func (c *Collector) Close() error { return nil }

// Events returns the retained events in emission order. Read it once the
// run has returned; the bus serializes Emit, nothing serializes a
// concurrent reader.
func (c *Collector) Events() []Event { return c.buf }
