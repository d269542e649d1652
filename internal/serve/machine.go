package serve

import (
	"hash/fnv"
	"sort"
)

// Machine is the replicated KV/queue state machine. It is driven only by
// the Applier, in slot order, so it needs no locking of its own.
type Machine struct {
	kv     map[uint64]int64
	queues map[uint64][]int64
}

// NewMachine returns an empty state machine.
func NewMachine() *Machine {
	return &Machine{kv: make(map[uint64]int64), queues: make(map[uint64][]int64)}
}

// Apply executes one command and returns its reply value and status. Get
// is tolerated: a logged read costs a slot but stays correct.
func (m *Machine) Apply(c Command) (int64, byte) {
	switch c.Op {
	case OpNop:
		return 0, StatusOK
	case OpPut:
		m.kv[c.Key] = c.Val
		return c.Val, StatusOK
	case OpDel:
		old, ok := m.kv[c.Key]
		delete(m.kv, c.Key)
		if !ok {
			return 0, StatusMissing
		}
		return old, StatusOK
	case OpQPush:
		q := append(m.queues[c.Key], c.Val)
		m.queues[c.Key] = q
		return int64(len(q)), StatusOK
	case OpQPop:
		q := m.queues[c.Key]
		if len(q) == 0 {
			return 0, StatusMissing
		}
		v := q[0]
		if len(q) == 1 {
			delete(m.queues, c.Key) // release the drained backing array
		} else {
			m.queues[c.Key] = q[1:]
		}
		return v, StatusOK
	case OpGet:
		v, ok := m.kv[c.Key]
		if !ok {
			return 0, StatusMissing
		}
		return v, StatusOK
	default:
		return 0, StatusMissing
	}
}

// Get reads a key without going through the log.
func (m *Machine) Get(key uint64) (int64, bool) {
	v, ok := m.kv[key]
	return v, ok
}

// Checksum digests the full machine state, order-free: keys are collected
// and sorted before hashing, so two machines that applied the same entries
// in the same slot order produce identical sums.
func (m *Machine) Checksum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	keys := make([]uint64, 0, len(m.kv))
	for k := range m.kv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		put(k)
		put(uint64(m.kv[k]))
	}
	put(0xfeed) // domain separator between the kv and queue sections
	keys = keys[:0]
	for k := range m.queues {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		put(k)
		for _, v := range m.queues[k] {
			put(uint64(v))
		}
		put(0xbeef)
	}
	return h.Sum64()
}
