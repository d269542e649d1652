package netrun_test

import (
	"context"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/netrun"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
)

func TestANucOverTCP(t *testing.T) {
	n := 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{2: 300})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 600, 11),
		Second: fd.NewSigmaNuPlus(pattern, 600, 11),
	}
	res, err := netrun.New().Run(context.Background(), consensus.NewANuc([]int{1, 0, 1, 0}), hist, pattern, substrate.Options{
		Seed:            1,
		MaxSteps:        200000,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := check.OutcomeFromConfig(res.Config)
	if err := out.Validity(); err != nil {
		t.Fatal(err)
	}
	if err := out.NonuniformAgreement(pattern); err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("not all correct processes decided within %d ticks", res.Ticks)
	}
	if res.BytesSent == 0 {
		t.Fatal("no bytes crossed the sockets?!")
	}
	t.Logf("decided after %d ticks; %d wire bytes; kinds %v",
		res.Ticks, res.BytesSent, res.SentKinds)
}

// TestDeliveriesMatchSendsOverTCP: no frame names its message, so the
// reader's count of frames is what names it, and the event bus would let
// a miscount pass: it skips a Deliver whose (From, Seq) no Send stamped.
// Every Deliver must name a Send from that sender to that receiver, of the
// same payload kind, none twice, and carry a later Lamport stamp; and no
// payload here supersedes, so what each link delivered is a prefix of what
// it carried, with no message skipped. A_nuc
// with a crash takes one message per step; the serving stack (n = 3,
// pipeline 2) is a model.Merger, so its takes join link runs and its
// sends are held over runs, and each message of a joined take must still
// get its own Deliver. That case must have joined some takes, or it
// checks nothing the A_nuc case does not.
func TestDeliveriesMatchSendsOverTCP(t *testing.T) {
	crash := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{1: 60})
	none := model.NewFailurePattern(3)
	serving := serve.NewCluster(serve.Config{N: 3, Slots: 400, Pipeline: 2, Batch: 8})
	sampler := rsm.SamplerForLog(none, 60, 1)
	serving.Log().WithSampler(sampler)
	for _, tc := range []struct {
		name    string
		aut     model.Automaton
		hist    model.History
		pattern *model.FailurePattern
		merges  bool
	}{
		{"anuc", consensus.NewANuc([]int{1, 0, 1, 0}), fd.PairHistory{
			First:  fd.NewOmega(crash, 400, 3),
			Second: fd.NewSigmaNuPlus(crash, 400, 3),
		}, crash, false},
		{"serve", serving.Automaton(), sampler, none, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := obs.NewCollector(obs.KindSend, obs.KindDeliver)
			reg := obs.NewRegistry()
			res, err := netrun.New().Run(context.Background(), tc.aut, tc.hist, tc.pattern, substrate.Options{
				Seed:            4,
				MaxSteps:        1_000_000,
				StopWhenDecided: true,
				Bus:             obs.NewBus(nil, nil, events),
				Metrics:         reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			type id struct {
				from model.ProcessID
				seq  uint64
			}
			sends := map[id]obs.Event{}
			for _, ev := range events.Events() {
				if ev.Kind == obs.KindSend {
					sends[id{ev.From, ev.Seq}] = ev
				}
			}
			delivered := map[id]bool{}
			type link struct{ from, to model.ProcessID }
			count, last := map[link]uint64{}, map[link]uint64{} // per link: Delivers, and the highest k delivered
			for _, ev := range events.Events() {
				if ev.Kind != obs.KindDeliver {
					continue
				}
				key := id{ev.From, ev.Seq}
				switch s, ok := sends[key]; {
				case !ok:
					t.Fatalf("%v delivered %v#%d, which no Send stamped", ev.P, ev.From, ev.Seq)
				case s.To != ev.P || s.Payload != ev.Payload:
					t.Fatalf("%v delivered %v#%d as %s, sent to %v as %s", ev.P, ev.From, ev.Seq, ev.Payload, s.To, s.Payload)
				case delivered[key]:
					t.Fatalf("%v delivered %v#%d twice", ev.P, ev.From, ev.Seq)
				case ev.L <= s.L:
					t.Fatalf("%v delivered %v#%d at Lamport %d, sent at %d", ev.P, ev.From, ev.Seq, ev.L, s.L)
				}
				delivered[key] = true
				l := link{ev.From, ev.P}
				count[l]++
				last[l] = max(last[l], ev.Seq/(model.MaxProcesses*model.MaxProcesses)) // the k of LinkSeq(from, to, k)
			}
			for l, k := range last {
				if count[l] != k {
					t.Fatalf("%v→%v delivered %d messages, the last of them its %d-th: a taken message got no Deliver", l.from, l.to, count[l], k)
				}
			}
			if len(delivered) == 0 || !res.Decided {
				t.Fatalf("%d messages delivered; decided %v", len(delivered), res.Decided)
			}
			merged := reg.Counter("substrate.takes_merged").Value()
			if tc.merges != (merged > 0) {
				t.Errorf("substrate.takes_merged = %d: a Merger joins some takes, any other automaton none", merged)
			}
			t.Logf("%d of %d sends delivered in %d ticks; %d messages joined into earlier takes, %d sends into held ones",
				len(delivered), len(sends), res.Ticks, merged, reg.Counter("substrate.sends_merged").Value())
		})
	}
}

func TestOracleFreeOverTCP(t *testing.T) {
	n, tf := 3, 1
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 500})
	aut := transform.NewOracleFree(
		hb.NewOmega(n, 0, 0),
		transform.NewScratchSigmaNuPlus(n, tf),
		consensus.NewANuc([]int{0, 1, 0}),
	)
	res, err := netrun.New().Run(context.Background(), aut, fd.Null, pattern, substrate.Options{
		Seed:            3,
		MaxSteps:        300000,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := check.OutcomeFromConfig(res.Config)
	if err := out.Validity(); err != nil {
		t.Fatal(err)
	}
	if err := out.NonuniformAgreement(pattern); err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("oracle-free TCP run did not decide within %d ticks", res.Ticks)
	}
	t.Logf("oracle-free over TCP: decided after %d ticks, %d wire bytes", res.Ticks, res.BytesSent)
}

// TestTransformerOverTCP ships whole DAG snapshots across sockets and
// validates the emulated Σν+ history.
func TestTransformerOverTCP(t *testing.T) {
	n := 3
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{0: 30})
	hist := fd.NewSigmaNu(pattern, 80, 5)
	// Progress under TCP backpressure is timing-dependent (snapshot writes
	// can block on full socket buffers); retry with a larger tick budget
	// before declaring failure.
	var res *substrate.Result
	var outputs *obs.Collector
	var err error
	for attempt, ticks := range []int{900, 1500} {
		outputs = obs.NewCollector(obs.KindFDOutput)
		res, err = netrun.New().Run(context.Background(), transform.NewSigmaNuPlusTransformer(n), hist, pattern, substrate.Options{
			Seed:     5 + int64(attempt),
			MaxSteps: ticks,
			Bus:      obs.NewBus(nil, nil, outputs),
		})
		if err != nil {
			t.Fatal(err)
		}
		if tcpConverged(res, pattern) {
			break
		}
	}
	// The concurrent substrate has no fairness bound, so a process's first
	// output update can land arbitrarily late; assert safety on the whole
	// record and completeness on each correct process's FINAL output.
	qs, err := check.QuorumSamples(check.History(outputs.Events(), res.Ticks))
	if err != nil {
		t.Fatal(err)
	}
	if err := check.NonuniformIntersection(qs, pattern); err != nil {
		t.Fatalf("over TCP: %v", err)
	}
	if err := check.SelfInclusion(qs); err != nil {
		t.Fatalf("over TCP: %v", err)
	}
	if err := check.ConditionalNonintersection(qs, pattern); err != nil {
		t.Fatalf("over TCP: %v", err)
	}
	// Liveness under TCP backpressure is environment-dependent, so require
	// only that the emulation made progress somewhere: at least one correct
	// process's final output is correct-only (full per-process convergence
	// is asserted on the deterministic substrate in internal/transform).
	if !tcpConverged(res, pattern) {
		t.Error("no correct process converged to a correct-only quorum in any attempt")
	}
	t.Logf("DAG gossip over TCP: %d wire bytes in %d ticks", res.BytesSent, res.Ticks)
}

// tcpConverged reports whether some correct process's final emitted quorum
// contains only correct processes.
func tcpConverged(res *substrate.Result, pattern *model.FailurePattern) bool {
	ok := false
	pattern.Correct().ForEach(func(q model.ProcessID) {
		out := res.Config.States[q].(model.FDOutput).EmulatedOutput()
		if got, has := fd.QuorumOf(out); has && got.SubsetOf(pattern.Correct()) {
			ok = true
		}
	})
	return ok
}

func TestNetrunValidation(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	aut := consensus.NewMRMajority([]int{0, 1, 1})
	ctx := context.Background()
	ten := substrate.Options{MaxSteps: 10}
	cases := []func() error{
		func() error { _, err := netrun.New().Run(ctx, nil, fd.Null, pattern, ten); return err },
		func() error { _, err := netrun.New().Run(ctx, aut, fd.Null, nil, ten); return err },
		func() error { _, err := netrun.New().Run(ctx, aut, fd.Null, pattern, substrate.Options{}); return err },
		func() error {
			_, err := netrun.New().Run(ctx, aut, fd.Null, model.NewFailurePattern(4), ten)
			return err
		},
	}
	for i, run := range cases {
		if run() == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestCrashMidBroadcastDoesNotWedgeMesh injects crashes while the cluster
// is in full flight — processes crash at staggered times, mid-broadcast
// from their peers' point of view — and requires (a) the surviving
// correct processes still decide, (b) no recorded step by a crashed
// process carries a time at or after its crash, and (c) the run returns
// at all: the crashed processes' sockets closing must surface as EOF to
// their peers' readers, not as a wedged mesh.
func TestCrashMidBroadcastDoesNotWedgeMesh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n := 5
		// Two crashes early and close together, while EST/SAW broadcasts of
		// the first rounds are still crossing the sockets.
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 40, 3: 90})
		hist := fd.PairHistory{
			First:  fd.NewOmega(pattern, 300, seed),
			Second: fd.NewSigmaNuPlus(pattern, 300, seed),
		}
		steps := obs.NewCollector(obs.KindStep)
		res, err := netrun.New().Run(context.Background(), consensus.NewANuc([]int{1, 0, 1, 0, 1}), hist, pattern, substrate.Options{
			Seed:            seed,
			MaxSteps:        300000,
			StopWhenDecided: true,
			Bus:             obs.NewBus(nil, nil, steps),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps.Events() {
			if pattern.Crashed(s.P, s.T) {
				t.Fatalf("seed=%d: crashed %v took a step at t=%d", seed, s.P, s.T)
			}
		}
		out := check.OutcomeFromConfig(res.Config)
		if err := out.Validity(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := out.NonuniformAgreement(pattern); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !res.Decided {
			t.Fatalf("seed=%d: survivors did not decide within %d ticks — mesh wedged?", seed, res.Ticks)
		}
	}
}

// bytesPerFrameCap bounds a steady link's bytes per frame. Fifteen runs
// of TestBytesPerFrameOverTCP read 2.53–2.67 on a 2-vCPU host, every frame
// coded on its link's run and ending at its last item; five runs each read
// 3.55–3.61 with a one-byte length prefix in front of every frame, and
// 6.09–6.14 with a wire.Link that codes every frame fresh.
const bytesPerFrameCap = 2.9

// TestBytesPerFrameOverTCP: a window-2 log of three processes deciding
// 2400 slots with no commands over the tcp substrate sends at most
// bytesPerFrameCap bytes per frame (netrun.bytes_sent over
// netrun.frames_sent). Nearly every frame is a few one-byte slot items, so
// a byte more per frame, from a length prefix or a link that stops
// advancing its run, fails it; batch bodies, which swing a per-entry count
// with the number of no-op slots, are not there to hide it.
func TestBytesPerFrameOverTCP(t *testing.T) {
	none := model.NewFailurePattern(3)
	cluster := serve.NewCluster(serve.Config{N: 3, Slots: 2400, Pipeline: 2, Batch: 8})
	sampler := rsm.SamplerForLog(none, 60, 1)
	cluster.Log().WithSampler(sampler)
	reg := obs.NewRegistry()
	res, err := netrun.New().Run(context.Background(), cluster.Automaton(), sampler, none, substrate.Options{
		Seed:            1,
		MaxSteps:        1_000_000,
		StopWhenDecided: true,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames, sent := reg.Counter("netrun.frames_sent").Value(), reg.Counter("netrun.bytes_sent").Value()
	if !res.Decided || frames == 0 {
		t.Fatalf("decided %v after %d frames", res.Decided, frames)
	}
	perFrame := float64(sent) / float64(frames)
	t.Logf("%d bytes in %d frames: %.3f per frame", sent, frames, perFrame)
	if perFrame > bytesPerFrameCap {
		t.Errorf("%.3f bytes per frame, cap %g", perFrame, bytesPerFrameCap)
	}
}
