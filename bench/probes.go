package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// The probes time public calls into single layers, in process: the numbers
// a change to one layer moves first. They do not depend on the workload;
// every traced invocation runs them so each per-layer metric always has a
// reading. Shapes follow the repo's own micro-benchmarks (bench_hot_test.go,
// bench_serve_test.go) so the two stay comparable.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// nsPerOp runs f in batches until about 60 ms have passed and returns the
// fastest batch's time per call: the floor is what the code costs, the
// rest is the host.
func nsPerOp(f func()) (float64, int) {
	const batch = 256
	best, total := 0.0, 0
	for begin := time.Now(); time.Since(begin) < 60*time.Millisecond; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		if ns := float64(time.Since(t0)) / batch; best == 0 || ns < best {
			best = ns
		}
		total += batch
	}
	return best, total
}

// probeSpec is the fixed sim execution behind the step and clone probes.
var probeSpec = simSpec{name: "probe", n: 4, pipe: 2,
	workload: serve.Workload{Commands: 512, Batch: 8, Clients: 8, Keys: 1024, Zipf: 1.3, QueueFrac: .25}}

func probeBatch(n int) []serve.Command {
	cmds := make([]serve.Command, n)
	for i := range cmds {
		cmds[i] = serve.Command{Client: uint32(i%4 + 1), Seq: uint64(i/4 + 1), Op: serve.OpPut, Key: uint64(i * 37 % 64), Val: int64(i)}
	}
	return cmds
}

// probeDelta is a slot-wrapped PROP carrying an incremental history delta:
// the steady-state frame of the shared-store log.
func probeDelta() quorum.Delta {
	return quorum.Delta{Base: 40, To: 44, Adds: []quorum.DeltaEntry{
		{R: 0, Q: model.SetOf(0, 1)}, {R: 1, Q: model.SetOf(1, 2)},
		{R: 2, Q: model.SetOf(0, 2)}, {R: 3, Q: model.SetOf(1, 3)},
	}}
}

// runProbes fills the P-sourced per-layer metrics, plus the single-shot
// A_nuc counts for the given seed.
func runProbes(seed int64, m metricSet) error {
	// internal/serve.
	bodies := make([][]serve.Command, 8)
	for i := range bodies {
		bodies[i] = probeBatch(8)
		for j := range bodies[i] {
			bodies[i][j].Seq = uint64(i*2 + j/4 + 1)
		}
	}
	ns, n := nsPerOp(func() {
		a := serve.NewApplier(0, nil, false)
		for k, b := range bodies {
			a.PutBody(serve.BatchID(1, k), b)
			a.OnEntry(0, k, serve.BatchID(1, k))
		}
	})
	m.set("serve.apply_ns_per_cmd", ns/64, n)
	ap := serve.NewApplier(0, nil, false)
	ap.PutBody(serve.BatchID(1, 0), probeBatch(64))
	ap.OnEntry(0, 0, serve.BatchID(1, 0))
	key := uint64(0)
	ns, n = nsPerOp(func() { v, _ := ap.Get(key % 64); key++; sink = v })
	m.set("serve.get_ns", ns, n)
	sess := serve.NewSessions()
	for seq := uint64(1); seq <= 64; seq++ {
		sess.Record(7, seq, int(seq), serve.StatusOK, int64(seq))
	}
	seq := uint64(0)
	ns, n = nsPerOp(func() { sink = sess.Applied(7, seq%64+1); seq++ })
	m.set("serve.dedup_hit_ns", ns, n)
	var batchPl model.Payload = serve.BatchPayload{ID: serve.BatchID(2, 7), Cmds: probeBatch(64)}
	var buf []byte
	ns, n = nsPerOp(func() { buf, _ = wire.AppendPayload(buf[:0], batchPl) })
	m.set("serve.batch_encode_ns", ns, n)

	// internal/wire.
	msg := &model.Message{From: 1, To: 2, Seq: 7, Payload: rsm.SlotPayload{Slot: 2,
		Inner: consensus.ProposalDeltaPayload{K: 3, V: 1, HasV: true, Delta: probeDelta()}}}
	ns, n = nsPerOp(func() { buf, _ = wire.AppendMessage(buf[:0], msg) })
	m.set("wire.encode_msg_ns", ns, n)
	frame, err := wire.EncodeMessage(msg)
	if err != nil {
		return fmt.Errorf("probe frame: %w", err)
	}
	var into model.Message
	ns, n = nsPerOp(func() { sink = wire.DecodeMessageInto(&into, frame) })
	m.set("wire.decode_msg_ns", ns, n)
	var pipe bytes.Buffer
	rd := bufio.NewReader(&pipe)
	var req model.Payload = serve.RequestPayload{Client: 1, Seq: 9, Op: serve.OpPut, Key: 5, Val: 6, T0: 1}
	ns, n = nsPerOp(func() {
		wire.WritePayloadFrame(&pipe, req)
		sink, _ = wire.ReadPayloadFrame(rd)
	})
	m.set("wire.req_frame_rt_ns", ns, n)

	// internal/substrate, internal/quorum, internal/fd, internal/obs.
	inbox := &substrate.Inbox{}
	ns, n = nsPerOp(func() { inbox.Put(msg); sink = inbox.Take() })
	m.set("substrate.inbox_put_take_ns", ns, n)
	store := quorum.NewVersioned(4)
	delta := probeDelta()
	store.Apply(delta)
	ns, n = nsPerOp(func() { sink = store.Apply(delta) })
	m.set("quorum.delta_apply_ns", ns, n)
	sampler := rsm.SamplerForLog(model.NewFailurePattern(4), simStabilize, 1)
	tick := model.Time(simStabilize + 1)
	ns, n = nsPerOp(func() { sink = sampler.Output(model.ProcessID(tick%4), tick); tick++ })
	m.set("fd.sample_ns", ns, n)
	tracer := obs.NewTracer(io.Discard, obs.Wall{}, nil)
	ns, n = nsPerOp(func() { tracer.Span(obs.SpanEvent{Stage: obs.StageApply, P: 1, Client: 2, Seq: 3, Batch: 4, Slot: 5}) })
	m.set("obs.span_ns", ns, n)

	// internal/rsm: the replica automaton's Step on the sim substrate. A
	// metered run gives the time per step; a bare run cut at half the
	// steps gives allocations per step and a mid-run state to clone.
	full, err := runSim(probeSpec, 1, true, 0)
	if err != nil {
		return err
	}
	steps := append([]float64(nil), full.meter.stepNS...)
	sort.Float64s(steps)
	m.set("rsm.step_ns", percentile(steps, 0.50), len(steps))
	m.set("rsm.step_p99_ns", tail(steps, 0.99), len(steps))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	half, err := runSim(probeSpec, 1, false, full.steps/2)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m.set("rsm.step_allocs", float64(after.Mallocs-before.Mallocs)/float64(half.steps), half.steps)
	m.set("rsm.step_bytes", float64(after.TotalAlloc-before.TotalAlloc)/float64(half.steps), half.steps)
	mid := half.final.States[1]
	runtime.ReadMemStats(&before)
	ns, n = nsPerOp(func() { sink = mid.CloneState() })
	runtime.ReadMemStats(&after)
	m.set("rsm.clone_ns", ns, n)
	m.set("rsm.clone_bytes", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n)

	// internal/consensus: A_nuc alone, one instance, n=4.
	return probeSingleShot(seed, m)
}

// countingAutomaton counts steps' sends and the time inside Step.
type countingAutomaton struct {
	model.Automaton
	msgs int
	busy time.Duration
}

func (a *countingAutomaton) Step(p model.ProcessID, s model.State, msg *model.Message, d model.FDValue) (model.State, []model.Send) {
	t0 := time.Now()
	ns, sends := a.Automaton.Step(p, s, msg, d)
	a.busy += time.Since(t0)
	a.msgs += len(sends)
	return ns, sends
}

// probeSingleShot runs one A_nuc instance (n=4, distinct proposals, no
// faults) on the sim substrate: the per-decision floor under the log's
// per-slot counts. The execution is a few hundred steps, so it is repeated
// (same seed, same steps) and the fastest repeat gives the time per step.
func probeSingleShot(seed int64, m metricSet) error {
	pattern := model.NewFailurePattern(4)
	sub, err := substrate.Get("sim")
	if err != nil {
		return err
	}
	best := 0.0
	for rep := 0; rep < 20; rep++ {
		hist := fd.PairHistory{
			First:  fd.NewOmega(pattern, simStabilize, seed),
			Second: fd.NewSigmaNuPlus(pattern, simStabilize, seed),
		}
		aut := &countingAutomaton{Automaton: consensus.NewANuc([]int{1, 2, 3, 4})}
		res, err := sub.Run(context.Background(), aut, hist, pattern, substrate.Options{Seed: seed, MaxSteps: 200_000, StopWhenDecided: true})
		if err != nil {
			return err
		}
		if !res.Decided {
			return fmt.Errorf("single-shot A_nuc did not decide within its step budget (seed %d)", seed)
		}
		if ns := float64(aut.busy) / float64(res.Steps); best == 0 || ns < best {
			best = ns
		}
		m.set("consensus.single_shot_steps", float64(res.Steps), 1)
		m.set("consensus.single_shot_msgs", float64(aut.msgs), 1)
		m.set("consensus.step_ns", best, res.Steps*(rep+1))
	}
	return nil
}
