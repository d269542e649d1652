package serve_test

import (
	"reflect"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// peerTap fails its test on any step that returns two sends to one
// destination, and counts the bundles it saw and the batch bodies in them.
type peerTap struct {
	model.Automaton
	t               *testing.T
	bundles, bodies int
}

func (a *peerTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	var to model.ProcessSet
	for _, snd := range sends {
		if to.Has(snd.To) {
			a.t.Fatalf("p%d's step returned two sends to %v: %v", p, snd.To, sends)
		}
		to = to.Add(snd.To)
		if b, ok := snd.Payload.(rsm.Bundle); ok {
			a.bundles++
			for _, pl := range b {
				if _, body := pl.(serve.BatchPayload); body {
					a.bodies++
				}
			}
		}
	}
	return ns, sends
}

// TestOneSendPerPeerPerStep: over whole runs shaped like the repo
// benchmark's sim workloads — n = 4, pipeline 2, detectors settling at tick
// 60 — neither the log's step nor the serving replica's returns two sends
// to one destination: everything a step sends a peer leaves as one bundle.
// The replica's run drains a batch from ingress on each of its first steps,
// so its BATCH gossip and the log's CMD forwards join the log's bundles.
func TestOneSendPerPeerPerStep(t *testing.T) {
	const n = 4
	pattern := model.PatternFromCrashes(n, nil)
	run := func(t *testing.T, aut model.Automaton, sampler *fd.Sampler, stop func(*model.Configuration, model.Time) bool) {
		t.Helper()
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   sampler,
			Scheduler: sim.NewFairScheduler(7, 0.8, 3),
			MaxSteps:  400000,
			StopWhen:  stop,
		})
		if err != nil || !res.Stopped {
			t.Fatalf("err = %v, done = %v", err, res != nil && res.Stopped)
		}
	}

	t.Run("log", func(t *testing.T) {
		const slots = 48
		cmds := make([][]int, n)
		for p := range cmds {
			for c := 0; c < 12; c++ {
				cmds[p] = append(cmds[p], 100*p+c)
			}
		}
		sampler := rsm.SamplerForLog(pattern, 60, 7)
		tap := &peerTap{Automaton: rsm.NewLog(cmds, slots).WithSampler(sampler).WithPipeline(2), t: t}
		run(t, tap, sampler, rsm.AllAppended(pattern, slots))
		if tap.bundles == 0 {
			t.Fatal("no step sent a bundle: the test lost its premise")
		}
	})

	t.Run("replica", func(t *testing.T) {
		const batches, per = 4, 3
		cl := serve.NewCluster(serve.Config{N: n, Slots: 64, Pipeline: 2, Target: n * batches * per, Retain: true})
		for p := model.ProcessID(0); p < n; p++ {
			for b := 0; b < batches; b++ {
				var cmds []serve.Command
				for i := 0; i < per; i++ {
					cmds = append(cmds, serve.Command{Client: uint32(p) + 1, Seq: uint64(b*per + i + 1), Op: serve.OpPut, Key: uint64(i), Val: int64(b)})
				}
				cl.Ingress(p).Push(cmds)
			}
		}
		sampler := rsm.SamplerForLog(pattern, 60, 7)
		cl.Log().WithSampler(sampler)
		tap := &peerTap{Automaton: cl.Automaton(), t: t}
		run(t, tap, sampler, substrate.AllCorrectDecided(pattern))
		if tap.bodies == 0 {
			t.Fatal("no bundle carried a batch body: the test lost its premise")
		}
	})
}

// TestBundledBodiesReachTheApplier: the replica takes the batch bodies out
// of a bundle before the log sees it. A bundle of bodies only stores them
// and gives the log a λ step, as a bare BATCH does; a bundle that also
// carries a CMD hands the log the CMD, as if it had come alone. A twin
// replica, stepped the way the log should have been, must send the same
// and end in the same state.
func TestBundledBodiesReachTheApplier(t *testing.T) {
	const n = 3
	d := fd.PairValue{First: fd.LeaderValue{Leader: 1}, Second: fd.QuorumValue{Quorum: model.FullSet(n)}}
	id0, id1 := serve.BatchID(1, 0), serve.BatchID(1, 1)
	body0 := []serve.Command{{Client: 5, Seq: 1, Op: serve.OpPut, Key: 3, Val: 30}}
	body1 := []serve.Command{{Client: 5, Seq: 2, Op: serve.OpPut, Key: 4, Val: 40}}
	bodies := []model.Payload{serve.BatchPayload{ID: id0, Cmds: body0}, serve.BatchPayload{ID: id1, Cmds: body1}}
	for _, tc := range []struct {
		name string
		got  rsm.Bundle
		want model.Payload // what the twin's log takes; nil: a λ step
	}{
		{"bodies only", rsm.Bundle(bodies), nil},
		{"bodies and a command", append(rsm.Bundle{rsm.CommandPayload{Cmd: id0}}, bodies...), rsm.CommandPayload{Cmd: id0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := func() (*serve.Cluster, model.State) {
				cl := serve.NewCluster(serve.Config{N: n, Slots: 4, Retain: true})
				return cl, cl.Automaton().InitState(0)
			}
			cl, st := cluster()
			twin, twinSt := cluster()
			_, got := cl.Automaton().Step(0, st, &model.Message{From: 1, To: 0, Seq: 1, Payload: tc.got}, d)
			var m *model.Message
			if tc.want != nil {
				m = &model.Message{From: 1, To: 0, Seq: 1, Payload: tc.want}
			}
			_, want := twin.Automaton().Step(0, twinSt, m, d)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the bundle's step sent %v, the twin's %v", got, want)
			}
			if g, w := serve.DebugState(st), serve.DebugState(twinSt); g != w {
				t.Errorf("after the bundle the replica is %s, the twin %s", g, w)
			}
			// Slots 0 and 1 decide the two batches: both apply at once, so
			// both bodies were stored.
			ap := cl.Applier(0)
			ap.OnEntry(0, 0, id0)
			ap.OnEntry(0, 1, id1)
			if s := ap.StatsOf(); s.Applied != 2 || s.Stalled != 0 || s.Commands != 2 {
				t.Errorf("applier after the bodies' slots decided: %+v, want both applied and nothing stalled", s)
			}
		})
	}
}
