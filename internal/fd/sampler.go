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
// value: a Sample is reproducible under replay because the query sequence
// is.
func (s Sample) String() string { return fmt.Sprintf("ε%d:%s", s.Epoch, s.Value) }

// Sampler wraps one per-process failure-detector history (typically the
// (Ω, Σν+) pair) and hands out epoch-stamped Samples. One module per
// process suffices because every outer step queries it once: rsm.Log.Step
// hands the one value to all of its live slot instances, and sim.Run and
// substrate.RunCluster query once per step with a fresh time. So a
// thousand-slot log still runs exactly one Ω/Σν+ module per process.
//
// Sampler itself implements model.History, so it drops into sim.Exec or a
// substrate cluster in place of the raw pair history.
type Sampler struct {
	inner model.History

	mu   sync.Mutex
	last [model.MaxProcesses]samplerSlot
	subs []func(model.ProcessID, Sample)
}

type samplerSlot struct {
	valid  bool
	sample model.FDValue // the last Sample handed out, boxed once
	epoch  uint64
}

// NewSampler returns a sampler over h.
func NewSampler(h model.History) *Sampler { return &Sampler{inner: h} }

// Subscribe registers fn to be called whenever some process's module
// output changes epoch (including each process's first sample). fn runs
// synchronously under the sampler's lock and must not call back into the
// sampler.
func (s *Sampler) Subscribe(fn func(model.ProcessID, Sample)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// Output implements model.History. It is safe for concurrent use (the
// async substrate queries one goroutine per process).
func (s *Sampler) Output(p model.ProcessID, t model.Time) model.FDValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.last[p]
	v := s.inner.Output(p, t)
	if slot.valid && sameValue(slot.sample.(Sample).Value, v) {
		// Same output as last time: keep the epoch and the boxed sample
		// (no allocation on the steady-state path).
		return slot.sample
	}
	if slot.valid {
		slot.epoch++
	}
	sample := Sample{Epoch: slot.epoch, Value: v}
	slot.valid = true
	slot.sample = sample
	for _, fn := range s.subs {
		fn(p, sample)
	}
	return sample
}

// sameValue reports whether two detector outputs are the same value: by ==
// when both are comparable, else by their rendering, which is a value's
// identity under replay. Only values of other packages' types take the
// String path: == on them could panic, since they may hold a slice or map.
func sameValue(a, b model.FDValue) bool {
	if comparableValue(a) && comparableValue(b) {
		return a == b
	}
	return a.String() == b.String()
}

// comparableValue reports whether == on v cannot panic: v is one of this
// package's flat value types, or a pair of comparable values.
func comparableValue(v model.FDValue) bool {
	switch v := v.(type) {
	case LeaderValue, QuorumValue, NullValue, SuspectsValue:
		return true
	case PairValue:
		return comparableValue(v.First) && comparableValue(v.Second)
	}
	return false
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
