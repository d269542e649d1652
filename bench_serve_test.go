// Serving-layer benchmarks: the batch codec and the exactly-once apply
// path cmd/nucd runs per decided slot. TestHotPathAllocs pins each op's
// allocs/op, so every op is designed to make that count a pure function
// of the code, not of how often it runs: either a zero-allocation
// contract (encode into a reused buffer, a read-only dedup probe) or fixed
// work per call (a fresh applier/session per op), never amortized growth
// of cross-call state.
package nuconsensus_test

import (
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// benchBatch builds the canonical bench batch: n commands from a handful
// of clients with contiguous per-client seqs, the shape a replica seals
// from its ingress queue under concurrent sessions.
func benchBatch(n int) []serve.Command {
	cmds := make([]serve.Command, n)
	for i := range cmds {
		client := uint32(i%4 + 1)
		cmds[i] = serve.Command{
			Client: client,
			Seq:    uint64(i/4 + 1),
			Op:     serve.OpPut,
			Key:    uint64(i * 37 % 64),
			Val:    int64(i) - 32,
		}
	}
	return cmds
}

// encode64Op encodes a 64-command BATCH body into a reused buffer (the
// buffer comes from the caller; netrun recycles frames through the wire
// pool).
func encode64Op(tb testing.TB) func() {
	// Box the payload once; re-boxing per call would charge the loop an
	// interface-conversion alloc the codec itself does not make.
	var pl model.Payload = serve.BatchPayload{ID: serve.BatchID(2, 7), Cmds: benchBatch(64)}
	var buf []byte
	return func() {
		var err error
		if buf, err = wire.AppendPayload(buf[:0], pl); err != nil {
			tb.Fatal(err)
		}
	}
}

// decode64Op decodes a 64-command BATCH body: it allocates the semantic
// structures only, the command slice and the payload box.
func decode64Op(tb testing.TB) func() {
	frame, err := wire.EncodePayload(serve.BatchPayload{ID: serve.BatchID(2, 7), Cmds: benchBatch(64)})
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := wire.DecodePayload(frame); err != nil {
			tb.Fatal(err)
		}
	}
}

// apply8x8Op feeds a fresh applier 8 batches of 8 commands, body-first
// then entry, exactly the sink cadence of a healthy run: sessions,
// machine, waiters — the whole exactly-once pipeline cmd/nucd runs per
// decided slot. Identical state every call keeps allocs/op fixed.
func apply8x8Op(tb testing.TB) func() {
	bodies := make([][]serve.Command, 8)
	ids := make([]int, 8)
	for i := range bodies {
		bodies[i] = benchBatch(8)
		for j := range bodies[i] {
			bodies[i][j].Seq = uint64(i*2 + j/4 + 1)
		}
		ids[i] = serve.BatchID(1, i)
	}
	return func() {
		a := serve.NewApplier(model.ProcessID(0), nil, false)
		for k, id := range ids {
			a.PutBody(id, bodies[k])
			a.OnEntry(0, k, id)
		}
		if got := a.Commands(); got != 64 {
			tb.Fatalf("applied %d commands, want 64", got)
		}
	}
}

// BenchmarkServeBatch measures the per-slot batch path: encode, decode and
// apply.
func BenchmarkServeBatch(b *testing.B) {
	b.Run("encode64", func(b *testing.B) { benchOp(b, encode64Op) })
	b.Run("decode64", func(b *testing.B) { benchOp(b, decode64Op) })
	b.Run("apply8x8", func(b *testing.B) { benchOp(b, apply8x8Op) })
}

// dedupHitOp is the duplicate check every applied command pays: a pure
// map read.
func dedupHitOp(tb testing.TB) func() {
	s := serve.NewSessions()
	for seq := uint64(1); seq <= 64; seq++ {
		s.Record(7, seq, int(seq), serve.StatusOK, int64(seq))
	}
	i := 0
	return func() {
		if !s.Applied(7, uint64(i%64+1)) {
			tb.Fatal("applied seq reported fresh")
		}
		i++
	}
}

// record320Op is a full session lifetime: a fresh table, 320 records from
// one client — past the reply window, so frontier advance, reply caching
// and window pruning all run.
func record320Op(tb testing.TB) func() {
	return func() {
		s := serve.NewSessions()
		for seq := uint64(1); seq <= 320; seq++ {
			s.Record(7, seq, int(seq), serve.StatusOK, int64(seq))
		}
		if s.Applied(7, 321) {
			tb.Fatal("unapplied seq reported applied")
		}
	}
}

// BenchmarkSessionDedup measures the session table's two hot probes.
func BenchmarkSessionDedup(b *testing.B) {
	b.Run("hit", func(b *testing.B) { benchOp(b, dedupHitOp) })
	b.Run("record320", func(b *testing.B) { benchOp(b, record320Op) })
}
