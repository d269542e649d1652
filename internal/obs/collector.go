package obs

// Collector is the selective in-memory sink: it keeps, in emission order,
// the events of the kinds it was built for and drops every other, so a
// caller that wants a run's detector samples (KindFDQuery) or emulated
// outputs (KindFDOutput) does not retain every step, send and deliver.
// Whether a run keeps its samples is whether one of these is attached to
// its bus; the experiment engine buffers a unit's whole stream in one of
// AllKinds.
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

// AllKinds lists every event kind, for a Collector that keeps a run's
// whole stream.
func AllKinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}
