// Hot-path benchmarks: the four inner loops every layer multiplies (the
// sim step loop, the wire codec, substrate.Inbox, the explore frontier —
// the last one lives in bench_test.go as BenchmarkExploreFrontier). These
// are the benchmarks cmd/benchreport normalizes into BENCH_15.json and the
// CI perf job gates on: allocs/op on the sim step loop and the wire
// decode/encode paths must stay at their committed baseline (zero in
// steady state), per DESIGN.md §8, and the explorer frontier within 10% of
// its own.
package nuconsensus_test

import (
	"fmt"
	"testing"

	"nuconsensus/internal/consensus"
	dagpkg "nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// idleState is the zero-size state of the idle benchmark automaton; its
// boxing is allocation-free, so the benchmark isolates engine overhead.
type idleState struct{}

func (s idleState) CloneState() model.State { return s }

// idleAutomaton takes λ-steps forever: no sends, no state change. It is
// the steady-state floor of the step loop — everything the engine itself
// costs per step, with the algorithm contributing nothing.
type idleAutomaton struct{ n int }

func (a idleAutomaton) Name() string                          { return "bench-idle" }
func (a idleAutomaton) N() int                                { return a.n }
func (a idleAutomaton) InitState(model.ProcessID) model.State { return idleState{} }
func (a idleAutomaton) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	return s, nil
}

// pingAutomaton sends one heartbeat to the next process on every step —
// the messaging steady state: each step allocates exactly the messages the
// model semantics require (payloads are immutable once sent) and nothing
// else.
type pingAutomaton struct{ n int }

func (a pingAutomaton) Name() string                          { return "bench-ping" }
func (a pingAutomaton) N() int                                { return a.n }
func (a pingAutomaton) InitState(model.ProcessID) model.State { return idleState{} }
func (a pingAutomaton) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	return s, []model.Send{{To: model.ProcessID((int(p) + 1) % a.n), Payload: hb.HeartbeatPayload{}}}
}

// nullHistory is the empty failure-detector history (every query yields no
// value), so detector plumbing costs nothing in the step benchmarks.
type nullHistory struct{}

func (nullHistory) Output(model.ProcessID, model.Time) model.FDValue { return nil }

// benchSimSteps runs b.N steps through one engine instance so ns/op and
// allocs/op are per-step figures; the constant per-run setup vanishes as
// b.N grows.
func benchSimSteps(b *testing.B, aut model.Automaton, bus *obs.Bus) {
	b.Helper()
	pattern := model.NewFailurePattern(aut.N())
	b.ReportAllocs()
	b.ResetTimer()
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   nullHistory{},
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  b.N,
		Bus:       bus,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Steps != b.N {
		b.Fatalf("ran %d steps, want %d", res.Steps, b.N)
	}
}

// BenchmarkSimStep measures the deterministic step loop's steady state:
// "idle" is pure engine overhead (must be 0 allocs/op), "idle-bus" adds
// the obs event bus with a metrics registry and no sinks (must also be 0
// allocs/op), and "messaging" adds one heartbeat send per step (allocs are
// the model's own message objects).
func BenchmarkSimStep(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		benchSimSteps(b, idleAutomaton{n: 4}, nil)
	})
	b.Run("idle-bus", func(b *testing.B) {
		benchSimSteps(b, idleAutomaton{n: 4}, obs.NewBus(nil, obs.NewRegistry()))
	})
	b.Run("messaging", func(b *testing.B) {
		benchSimSteps(b, pingAutomaton{n: 4}, nil)
	})
	b.Run("messaging-bus", func(b *testing.B) {
		benchSimSteps(b, pingAutomaton{n: 4}, obs.NewBus(nil, obs.NewRegistry()))
	})
}

// benchFrames returns framed wire messages representative of the hot
// paths: the minimal heartbeat (the highest-frequency small frame), a
// REPORT (small consensus payload), and a DAG snapshot (the CHT-style
// gossip heavyweight whose construction/decode cost dominates E2).
func benchFrame(b *testing.B, payload model.Payload) []byte {
	b.Helper()
	frame, err := wire.EncodeMessage(&model.Message{From: 1, To: 2, Seq: 7, Payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkWireEncode measures payload → frame encoding into a reused
// buffer. Steady state must be 0 allocs/op for every payload kind: the
// scratch buffer comes from the caller (netrun recycles frames through the
// package pool).
func BenchmarkWireEncode(b *testing.B) {
	for _, tc := range []struct {
		name string
		pl   model.Payload
	}{
		{"heartbeat", hb.HeartbeatPayload{}},
		{"lead-hist", consensusLead(3, 1, quorumHistories(5))},
		{"lead-delta", benchDeltaPayload()},
		{"dag64", benchGraphPayload(64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			msg := &model.Message{From: 1, To: 2, Seq: 7, Payload: tc.pl}
			var frame []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if frame, err = wire.AppendMessage(frame[:0], msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode measures frame → message decoding. The heartbeat
// path must be 0 allocs/op in steady state (zero-size payload, caller-
// provided message); larger payloads allocate only their semantic
// structures.
func BenchmarkWireDecode(b *testing.B) {
	for _, tc := range []struct {
		name string
		pl   model.Payload
	}{
		{"heartbeat", hb.HeartbeatPayload{}},
		{"report", benchReportPayload()},
		{"lead-delta", benchDeltaPayload()},
		{"dag64", benchGraphPayload(64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			frame := benchFrame(b, tc.pl)
			var msg model.Message
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := wire.DecodeMessageInto(&msg, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWirePeek measures the envelope-only parse the tcp readers run
// on every received frame (supersession collapsing works on undecoded
// frames). Must be 0 allocs/op.
func BenchmarkWirePeek(b *testing.B) {
	frame := benchFrame(b, benchGraphPayload(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.PeekMessage(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInbox measures the concurrent substrates' mailbox under its two
// regimes: plain FIFO put/take, and a superseding flood (DAG snapshots)
// where puts collapse older pending frames.
func BenchmarkInbox(b *testing.B) {
	b.Run("put-take", func(b *testing.B) {
		inbox := &substrate.Inbox{}
		msg := &model.Message{From: 0, To: 1, Seq: 1, Payload: hb.HeartbeatPayload{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inbox.Put(msg)
			if inbox.Take() == nil {
				b.Fatal("empty inbox")
			}
		}
	})
	b.Run("superseding-flood", func(b *testing.B) {
		inbox := &substrate.Inbox{}
		msg := &model.Message{From: 0, To: 1, Seq: 1, Payload: benchGraphPayload(4)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inbox.Put(msg)
			if i%8 == 7 { // drain occasionally: a flooded receiver taking 1-in-8
				inbox.Take()
			}
		}
	})
	b.Run("put-batch", func(b *testing.B) {
		inbox := &substrate.Inbox{}
		batch := make([]*model.Message, 16)
		for i := range batch {
			batch[i] = &model.Message{From: 0, To: 1, Seq: uint64(i), Payload: hb.HeartbeatPayload{}}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inbox.PutBatch(batch)
			for range batch {
				inbox.Take()
			}
		}
	})
}

// benchReportPayload is the small consensus payload of the decode bench.
func benchReportPayload() model.Payload { return consensus.ReportPayload{K: 3, V: 1} }

// benchDeltaPayload is a slot-wrapped LEAD carrying an incremental history
// delta — the steady-state frame of the shared-store replicated log. Its
// encode path shares the zero-allocation contract with the other payload
// kinds.
func benchDeltaPayload() model.Payload {
	return rsm.SlotPayload{Slot: 2, Inner: consensus.LeadDeltaPayload{K: 3, V: 1, Delta: quorum.Delta{
		Base: 40, To: 44, Adds: []quorum.DeltaEntry{
			{R: 0, Q: model.SetOf(0, 1)},
			{R: 1, Q: model.SetOf(1, 2)},
			{R: 2, Q: model.SetOf(0, 2)},
			{R: 3, Q: model.SetOf(1, 3)},
		},
	}}}
}

// benchGraphPayload builds an n-node DAG snapshot, the heavyweight gossip
// payload of A_DAG (and the only SupersededPayload in the repo).
func benchGraphPayload(n int) model.Payload {
	g := dagpkg.NewGraph()
	for i := 0; i < n; i++ {
		g.AddSample(model.ProcessID(i%4), fd.QuorumValue{Quorum: model.SetOf(0, 1)}, i/4+1)
	}
	return dagpkg.GraphPayload{G: g}
}

func init() {
	// Guard against accidentally benchmarking a non-superseding graph
	// payload in the flood benchmark.
	if _, ok := benchGraphPayload(1).(model.SupersededPayload); !ok {
		panic(fmt.Sprintf("dag graph payload no longer supersedes"))
	}
}
