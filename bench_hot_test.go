// Hot-path benchmarks: the inner loops every layer multiplies (the sim
// step loop, the wire codec, substrate.Inbox, the explore frontier — the
// last one lives in bench_test.go as BenchmarkExploreFrontier). They are
// for profiling; no numbers are committed. Every benchmark here and in
// bench_log_test.go / bench_serve_test.go except BenchmarkSimStep times a
// hotOp, and TestHotPathAllocs (alloc_test.go) pins the allocs/op of the
// same hotOp, so the code `go test -bench` times is the code the
// allocation gate checks (DESIGN.md §8).
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

// hotOp sets up one hot-path operation, failing tb if the setup fails, and
// returns its body: one call is one benchmark iteration.
type hotOp func(tb testing.TB) func()

// benchOp times b.N calls of op's body, setup excluded.
func benchOp(b *testing.B, op hotOp) {
	run := op(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

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
// the messaging steady state (DESIGN.md §8 lists what such a step
// allocates).
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

// runSteps runs exactly steps steps of aut through one sim engine.
func runSteps(tb testing.TB, aut model.Automaton, bus *obs.Bus, steps int) {
	tb.Helper()
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   model.NewFailurePattern(aut.N()),
		History:   nullHistory{},
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  steps,
		Bus:       bus,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Steps != steps {
		tb.Fatalf("ran %d steps, want %d", res.Steps, steps)
	}
}

// BenchmarkSimStep measures the deterministic step loop's steady state:
// "idle" is pure engine overhead, "idle-bus" adds the obs event bus with a
// metrics registry and no sinks, and "messaging" adds one heartbeat send
// per step. b.N steps run through one engine, so ns/op is a per-step
// figure; allocs/op is truncated to an integer, which is why
// TestSimStepSteadyStateAllocFree pins allocations instead.
func BenchmarkSimStep(b *testing.B) {
	for _, tc := range simStepCases {
		b.Run(tc.name, func(b *testing.B) {
			bus := tc.bus()
			b.ReportAllocs()
			b.ResetTimer()
			runSteps(b, tc.aut, bus, b.N)
		})
	}
}

// benchPayload returns the codec benchmarks' payload of the given name:
// the minimal heartbeat (the highest-frequency small frame), a REPORT (a
// small consensus payload), a LEAD with full quorum histories, a
// slot-wrapped LEAD carrying an incremental history delta (the
// steady-state frame of the shared-store replicated log), that LEAD bundled
// with a progress announcement and the slot's REP (what one step of the log
// sends one peer), and a 64-node
// DAG snapshot (the CHT-style gossip heavyweight whose cost dominates E2).
func benchPayload(name string) model.Payload {
	switch name {
	case "heartbeat":
		return hb.HeartbeatPayload{}
	case "report":
		return consensus.ReportPayload{K: 3, V: 1}
	case "lead-hist":
		h := quorum.NewHistories(5)
		for i := 0; i < 5; i++ {
			h.Add(model.ProcessID(i), model.SetOf(model.ProcessID(i), 0))
		}
		return consensus.LeadPayload{K: 3, V: 1, Hist: h}
	case "lead-delta":
		return rsm.SlotPayload{Slot: 2, Inner: consensus.LeadDeltaPayload{K: 3, V: 1, Delta: quorum.Delta{
			Base: 40, To: 44, Adds: []quorum.DeltaEntry{
				{R: 0, Q: model.SetOf(0, 1)},
				{R: 1, Q: model.SetOf(1, 2)},
				{R: 2, Q: model.SetOf(0, 2)},
				{R: 3, Q: model.SetOf(1, 3)},
			},
		}}}
	case "bundle":
		lead := benchPayload("lead-delta").(rsm.SlotPayload)
		return rsm.Bundle{
			rsm.ProgressPayload{Slot: lead.Slot},
			lead,
			rsm.SlotPayload{Slot: lead.Slot, Inner: consensus.ReportPayload{K: 3, V: 1}},
		}
	case "dag64":
		return benchGraphPayload(64)
	}
	panic("unknown bench payload " + name)
}

// benchFrame returns the peer frame of a message carrying payload: the
// payload's encoding alone.
func benchFrame(tb testing.TB, payload model.Payload) []byte {
	tb.Helper()
	frame, err := wire.EncodeMessage(&model.Message{From: 1, To: 2, Seq: 7, Payload: payload})
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// wireEncodeOp encodes the named payload's message into a reused buffer
// (netrun recycles frames through the package pool, so the buffer comes
// from the caller).
func wireEncodeOp(name string) hotOp {
	return func(tb testing.TB) func() {
		msg := &model.Message{From: 1, To: 2, Seq: 7, Payload: benchPayload(name)}
		var frame []byte
		return func() {
			var err error
			if frame, err = wire.AppendMessage(frame[:0], msg); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// wireDecodeOp decodes the named payload's frame into a caller-provided
// message; what it allocates is the payload's semantic structures.
func wireDecodeOp(name string) hotOp {
	return func(tb testing.TB) func() {
		frame := benchFrame(tb, benchPayload(name))
		var msg model.Message
		return func() {
			if err := wire.DecodeMessageInto(&msg, frame); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// wireLinkEncodeOp encodes the bundle as netrun does, on a link's codec
// (wire.Link), committing each frame. Every frame after the first inherits
// from one that is the same, so each op writes the same bytes.
func wireLinkEncodeOp(tb testing.TB) func() {
	pl := benchPayload("bundle")
	var (
		l     wire.Link
		frame []byte
	)
	return func() {
		var err error
		if frame, err = l.Append(frame[:0], pl); err != nil {
			tb.Fatal(err)
		}
		l.Commit()
	}
}

// steadyLinkFrame returns the bundle's steady frame on a link and a
// receiving codec warmed by the frames before it: the frame leaves the
// codec's run where it found it, so it decodes the same way every time.
// Its first item is the PRGR, which inherits its slot.
func steadyLinkFrame(tb testing.TB) (*wire.Link, []byte) {
	pl := benchPayload("bundle")
	var tx, rx wire.Link
	var msg model.Message
	for i := 0; i < 2; i++ {
		frame, err := tx.Append(nil, pl)
		if err == nil {
			err = rx.Decode(&msg, frame)
		}
		if err != nil {
			tb.Fatal(err)
		}
		tx.Commit()
	}
	frame, err := tx.Append(nil, pl)
	if err != nil {
		tb.Fatal(err)
	}
	return &rx, frame
}

// wireLinkDecodeOp decodes the bundle's steady frame on a warmed link's
// receiving codec, the same frame from the same run every op.
func wireLinkDecodeOp(tb testing.TB) func() {
	rx, frame := steadyLinkFrame(tb)
	var msg model.Message
	return func() {
		if err := rx.Decode(&msg, frame); err != nil {
			tb.Fatal(err)
		}
	}
}

// wirePeekOp is the kind-only parse the tcp readers run on every received
// frame (supersession collapsing works on undecoded frames): of a DAG
// frame, its first byte.
func wirePeekOp(tb testing.TB) func() {
	frame := benchFrame(tb, benchPayload("dag64"))
	return func() {
		if _, err := wire.PeekMessage(frame); err != nil {
			tb.Fatal(err)
		}
	}
}

// wireLinkPeekOp peeks the bundle's steady frame, a slot-led frame of
// several items like nearly every frame a serving link carries: the peek
// walks the first item to find that more follow.
func wireLinkPeekOp(tb testing.TB) func() {
	_, frame := steadyLinkFrame(tb)
	return func() {
		if h, err := wire.PeekMessage(frame); err != nil || h.Kind != "BNDL" {
			tb.Fatalf("peek = %+v, %v", h, err)
		}
	}
}

// BenchmarkWireEncode measures payload → frame encoding per payload kind.
func BenchmarkWireEncode(b *testing.B) {
	for _, name := range []string{"heartbeat", "lead-hist", "lead-delta", "bundle", "dag64"} {
		b.Run(name, func(b *testing.B) { benchOp(b, wireEncodeOp(name)) })
	}
	b.Run("link-bundle", func(b *testing.B) { benchOp(b, wireLinkEncodeOp) })
}

// BenchmarkWireDecode measures frame → message decoding per payload kind.
func BenchmarkWireDecode(b *testing.B) {
	for _, name := range []string{"heartbeat", "report", "lead-delta", "bundle", "dag64"} {
		b.Run(name, func(b *testing.B) { benchOp(b, wireDecodeOp(name)) })
	}
	b.Run("link-bundle", func(b *testing.B) { benchOp(b, wireLinkDecodeOp) })
}

// BenchmarkWirePeek measures the kind-only parse of a DAG frame, and of a
// link's slot-led bundle.
func BenchmarkWirePeek(b *testing.B) {
	b.Run("dag64", func(b *testing.B) { benchOp(b, wirePeekOp) })
	b.Run("link-bundle", func(b *testing.B) { benchOp(b, wireLinkPeekOp) })
}

// inboxPutTakeOp is the concurrent substrates' mailbox as a plain FIFO.
func inboxPutTakeOp(tb testing.TB) func() {
	inbox := &substrate.Inbox{}
	msg := &model.Message{From: 0, To: 1, Seq: 1, Payload: hb.HeartbeatPayload{}}
	return func() {
		inbox.Put(msg)
		if inbox.Take() == nil {
			tb.Fatal("empty inbox")
		}
	}
}

// inboxFloodOp is a superseding flood (DAG snapshots): puts collapse older
// pending frames, and a flooded receiver takes one in eight.
func inboxFloodOp(tb testing.TB) func() {
	inbox := &substrate.Inbox{}
	msg := &model.Message{From: 0, To: 1, Seq: 1, Payload: benchGraphPayload(4)}
	i := 0
	return func() {
		inbox.Put(msg)
		if i%8 == 7 {
			inbox.Take()
		}
		i++
	}
}

// inboxPutBatchOp puts a 16-message batch and drains it.
func inboxPutBatchOp(tb testing.TB) func() {
	inbox := &substrate.Inbox{}
	batch := make([]*model.Message, 16)
	for i := range batch {
		batch[i] = &model.Message{From: 0, To: 1, Seq: uint64(i), Payload: hb.HeartbeatPayload{}}
	}
	return func() {
		inbox.PutBatch(batch)
		for range batch {
			inbox.Take()
		}
	}
}

// BenchmarkInbox measures the concurrent substrates' mailbox under its
// regimes: plain FIFO put/take, a superseding flood, and batched puts.
func BenchmarkInbox(b *testing.B) {
	b.Run("put-take", func(b *testing.B) { benchOp(b, inboxPutTakeOp) })
	b.Run("superseding-flood", func(b *testing.B) { benchOp(b, inboxFloodOp) })
	b.Run("put-batch", func(b *testing.B) { benchOp(b, inboxPutBatchOp) })
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
