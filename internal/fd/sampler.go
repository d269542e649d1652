package fd

import (
	"fmt"
	"hash/fnv"
	"sync"

	"nuconsensus/internal/model"
)

// Sample is an epoch-stamped failure-detector output: the value one
// per-process detector module produced, tagged with how many times that
// module's output has changed so far. Consumers that share one detector
// module (all live slot instances of a replicated log) can compare epochs
// instead of re-querying: if the epoch is unchanged, so is the value.
//
// Sample implements model.FDValue so a Sampler can drive any automaton
// directly; LeaderOf/QuorumOf/SuspectsOf unwrap it transparently.
type Sample struct {
	Epoch uint64
	Value model.FDValue
}

// String implements model.FDValue. The epoch is part of the rendered
// value: a Sample is reproducible under replay because the memoized query
// sequence is.
func (s Sample) String() string { return fmt.Sprintf("ε%d:%s", s.Epoch, s.Value) }

// SamplerStats counts the work a Sampler did and saved. The counters are
// plain values (not obs metrics) because obs depends on fd; callers fold
// them into a metrics registry at their layer.
type SamplerStats struct {
	Queries      uint64 // Output calls observed
	InnerQueries uint64 // queries forwarded to the wrapped history
	MemoHits     uint64 // queries answered from the per-process memo
	Epochs       uint64 // total epoch advances across all processes
}

// Sampler wraps one per-process failure-detector history (typically the
// (Ω, Σν+) pair) and hands out epoch-stamped Samples. The wrapped history
// is queried at most once per (process, tick); repeat queries at the same
// tick — every live slot instance of the same process in the same step —
// are served from the memo, so a thousand-slot log still runs exactly one
// Ω/Σν+ module per process.
//
// Sampler itself implements model.History, so it drops into sim.Exec or a
// substrate cluster in place of the raw pair history.
type Sampler struct {
	inner model.History

	mu    sync.Mutex
	memo  [model.MaxProcesses]samplerSlot
	subs  []func(model.ProcessID, Sample)
	stats SamplerStats
}

type samplerSlot struct {
	valid  bool
	at     model.Time
	str    string // String of the last inner value, for change detection
	sample model.FDValue
	epoch  uint64
}

// NewSampler returns a sampler over h.
func NewSampler(h model.History) *Sampler { return &Sampler{inner: h} }

// Subscribe registers fn to be called whenever some process's module
// output changes epoch (including each process's first sample). fn runs
// synchronously under the sampler's lock and must not call back into the
// sampler. It returns an unsubscribe function.
func (s *Sampler) Subscribe(fn func(model.ProcessID, Sample)) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
	i := len(s.subs) - 1
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.subs[i] = nil
	}
}

// Output implements model.History. It is safe for concurrent use (the
// async substrate queries one goroutine per process).
func (s *Sampler) Output(p model.ProcessID, t model.Time) model.FDValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Queries++
	slot := &s.memo[p]
	if slot.valid && slot.at == t {
		s.stats.MemoHits++
		return slot.sample
	}
	s.stats.InnerQueries++
	v := s.inner.Output(p, t)
	str := v.String()
	if slot.valid && slot.str == str {
		// Same output at a later tick: keep the epoch and the boxed
		// sample (no allocation on the steady-state path).
		slot.at = t
		return slot.sample
	}
	if slot.valid {
		slot.epoch++
	}
	s.stats.Epochs++
	sample := Sample{Epoch: slot.epoch, Value: v}
	slot.valid = true
	slot.at = t
	slot.str = str
	slot.sample = sample
	for _, fn := range s.subs {
		if fn != nil {
			fn(p, sample)
		}
	}
	return sample
}

// Stats returns a snapshot of the sampler's counters.
func (s *Sampler) Stats() SamplerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// StabilizeTime implements Stabilizer by delegation.
func (s *Sampler) StabilizeTime() model.Time {
	if st, ok := s.inner.(Stabilizer); ok {
		return st.StabilizeTime()
	}
	return 0
}

// DeriveSeed derives an independent deterministic sub-stream seed from a
// parent seed and a label, so two detector modules built from one
// configuration seed (e.g. the Ω and Σν+ halves of a pair) do not consume
// correlated noise. Same FNV-1a construction as experiments.DeriveSeed;
// `make tables-check` and TestRunAllDeterministic pin the derived seeds.
func DeriveSeed(label string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	var b [8]byte
	u := uint64(seed)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64())
}
