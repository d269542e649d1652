// Serving-layer benchmarks: the batch codec and the exactly-once apply
// path cmd/nucd runs per decided slot. They join the hot-path slice that
// cmd/benchreport normalizes into BENCH_15.json and the CI perf job gates
// on. Every gated sub-benchmark is designed so allocs/op is a pure
// function of the code, not of b.N: either a zero-allocation contract
// (encode into a reused buffer, a read-only dedup probe) or fixed work
// per iteration (a fresh applier/session per op), never amortized growth
// of cross-iteration state.
package nuconsensus_test

import (
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// benchBatch builds the canonical bench batch: n commands from a handful
// of clients with contiguous per-client seqs, the shape nucd's batcher
// produces under concurrent sessions.
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

// BenchmarkServeBatch measures the per-slot batch path: encoding a
// 64-command BATCH body into a reused buffer (must be 0 allocs/op — the
// buffer comes from the caller, netrun recycles frames through the wire
// pool), decoding it (allocs are the semantic structures only: the
// command slice and the payload box), and applying a full 8×8 batch
// sequence through a fresh applier (sessions, machine, waiters — the
// whole exactly-once pipeline cmd/nucd runs per decided slot).
func BenchmarkServeBatch(b *testing.B) {
	b.Run("encode64", func(b *testing.B) {
		// Box the payload once; re-boxing per call would charge the loop an
		// interface-conversion alloc the codec itself does not make.
		var pl model.Payload = serve.BatchPayload{ID: serve.BatchID(2, 7), Cmds: benchBatch(64)}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = wire.AppendPayload(buf[:0], pl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode64", func(b *testing.B) {
		frame, err := wire.EncodePayload(serve.BatchPayload{ID: serve.BatchID(2, 7), Cmds: benchBatch(64)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodePayload(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply8x8", func(b *testing.B) {
		// Fixed work per iteration: a fresh applier receives 8 batches of 8
		// commands, body-first then entry, exactly the sink cadence of a
		// healthy run. Identical state every op keeps allocs/op b.N-free.
		bodies := make([][]serve.Command, 8)
		ids := make([]int, 8)
		for i := range bodies {
			bodies[i] = benchBatch(8)
			for j := range bodies[i] {
				bodies[i][j].Seq = uint64(i*2 + j/4 + 1)
			}
			ids[i] = serve.BatchID(1, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := serve.NewApplier(model.ProcessID(0), nil, false)
			for k, id := range ids {
				a.PutBody(id, bodies[k])
				a.OnEntry(0, k, id)
			}
			if got := a.Commands(); got != 64 {
				b.Fatalf("applied %d commands, want 64", got)
			}
		}
	})
}

// BenchmarkSessionDedup measures the session table's two hot probes: the
// duplicate check every applied command pays (must be 0 allocs/op — it is
// a pure map read), and a full session lifetime (fresh table, 320 records
// from one client — past the reply window, so frontier advance, reply
// caching and window pruning all run; fixed work per op).
func BenchmarkSessionDedup(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := serve.NewSessions()
		for seq := uint64(1); seq <= 64; seq++ {
			s.Record(7, seq, int(seq), serve.StatusOK, int64(seq))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !s.Applied(7, uint64(i%64+1)) {
				b.Fatal("applied seq reported fresh")
			}
		}
	})
	b.Run("record320", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := serve.NewSessions()
			for seq := uint64(1); seq <= 320; seq++ {
				s.Record(7, seq, int(seq), serve.StatusOK, int64(seq))
			}
			if s.Applied(7, 321) {
				b.Fatal("unapplied seq reported applied")
			}
		}
	})
}
