package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBuckets are the fixed upper bounds used when a caller does not
// bring its own: logical-tick and count scales from 1 to 1e6. Fixed
// buckets (no dynamic resizing, no quantile sketches) keep histogram
// merges commutative, which is what makes metric dumps byte-identical at
// any worker count.
var DefaultBuckets = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 100000, 1000000}

// Counter is a monotonically increasing sum. Adds from concurrent units
// commute, so counter values are deterministic whenever the run's work is.
// A nil *Counter, which a nil *Registry hands out, records nothing.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by v.
func (c *Counter) Add(v int64) {
	if c != nil {
		c.v.Add(v)
	}
}

// Value returns the current sum.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins level. Gauges are NOT deterministic under
// concurrent writers; deterministic paths restrict themselves to counters
// and histograms (DESIGN.md §7) and set gauges only from single-threaded
// code (e.g. the explorer's per-level frontier depth). A nil *Gauge
// records nothing.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: counts[i] tallies samples
// v <= bounds[i], with one overflow bucket beyond the last bound. Bucket
// increments commute, so histograms are as deterministic as counters. A
// nil *Histogram records nothing.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples; Sum their total.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// rank, the standard fixed-bucket estimator: the true quantile lies
// somewhere in [lower bound, upper bound] of that bucket, and the
// estimate assumes samples spread uniformly across it. Ranks landing in
// the overflow bucket clamp to the last finite bound (there is no upper
// edge to interpolate toward). Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: clamp to the largest finite bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return float64(h.bounds[len(h.bounds)-1])
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.bounds[i])
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// metric is one registered instrument.
type metric struct {
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named instruments. Get-or-create methods are safe for
// concurrent use; snapshots render in sorted name order so dumps are
// byte-identical whenever the underlying values are. A nil *Registry is
// valid: it hands out nil instruments, which record nothing, so a run is
// unmetered exactly when its registry is nil.
type Registry struct {
	mu sync.Mutex
	m  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*metric)} }

// get returns the named metric slot, creating it with mk on first use.
func (r *Registry) get(name string, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]*metric)
	}
	inst, ok := r.m[name]
	if !ok {
		inst = mk()
		r.m[name] = inst
	}
	return inst
}

// Counter returns the named counter, creating it on first use. Registering
// the same name as two different instrument kinds panics: metric names are
// a global namespace.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	inst := r.get(name, func() *metric { return &metric{counter: &Counter{}} })
	if inst.counter == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return inst.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	inst := r.get(name, func() *metric { return &metric{gauge: &Gauge{}} })
	if inst.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return inst.gauge
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (sorted ascending) on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	inst := r.get(name, func() *metric {
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return &metric{hist: h}
	})
	if inst.hist == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return inst.hist
}

// MetricSnapshot is one instrument's point-in-time reading.
type MetricSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	// Value is the counter sum, the gauge level, or the histogram sample
	// count.
	Value int64 `json:"value"`
	// Sum and Buckets are histogram-only: the sample total and the
	// cumulative "<= bound" counts aligned with Bounds (the final entry of
	// Bounds is absent: the last count is the total).
	Sum     int64   `json:"sum,omitempty"`
	Bounds  []int64 `json:"bounds,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot returns every instrument's reading in sorted name order
// (collect-then-sort, so no map iteration order escapes).
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	insts := make(map[string]*metric, len(r.m))
	for name, inst := range r.m {
		names = append(names, name)
		insts[name] = inst
	}
	r.mu.Unlock()
	sort.Strings(names)

	out := make([]MetricSnapshot, 0, len(names))
	for _, name := range names {
		inst := insts[name]
		switch {
		case inst.counter != nil:
			out = append(out, MetricSnapshot{Name: name, Kind: "counter", Value: inst.counter.Value()})
		case inst.gauge != nil:
			out = append(out, MetricSnapshot{Name: name, Kind: "gauge", Value: inst.gauge.Value()})
		case inst.hist != nil:
			h := inst.hist
			s := MetricSnapshot{Name: name, Kind: "histogram", Value: h.Count(), Sum: h.Sum(), Bounds: h.bounds}
			for i := range h.counts {
				s.Buckets = append(s.Buckets, h.counts[i].Load())
			}
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL renders the snapshot as JSONL, one JSON object per
// instrument in name order — the -metrics format of every host.
func (r *Registry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLFile is WriteJSONL into a file created at path.
func (r *Registry) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
