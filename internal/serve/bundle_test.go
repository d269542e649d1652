package serve_test

import (
	"reflect"
	"strings"
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
// so its owed batch bodies join the log's bundles.
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
		run(t, tap, sampler, substrate.AllCorrectDecided(pattern))
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
// of a message before the log sees it, and hands the log the CMD each body
// stands for at the body's place, bare or bundled: a sender's body is the
// forward of its batch's ID. A twin replica, stepped with those CMDs,
// must send the same and end in the same state; the order of the log's
// known commands shows each CMD landed at its body's place.
func TestBundledBodiesReachTheApplier(t *testing.T) {
	const n = 3
	d := fd.PairValue{First: fd.LeaderValue{Leader: 1}, Second: fd.QuorumValue{Quorum: model.FullSet(n)}}
	id0, id1 := serve.BatchID(1, 0), serve.BatchID(1, 1)
	body0 := serve.BatchPayload{ID: id0, Cmds: []serve.Command{{Client: 5, Seq: 1, Op: serve.OpPut, Key: 3, Val: 30}}}
	body1 := serve.BatchPayload{ID: id1, Cmds: []serve.Command{{Client: 5, Seq: 2, Op: serve.OpPut, Key: 4, Val: 40}}}
	cmd0, cmd1, other := rsm.CommandPayload{Cmd: id0}, rsm.CommandPayload{Cmd: id1}, rsm.CommandPayload{Cmd: 7}
	for _, tc := range []struct {
		name      string
		got, want []model.Payload // the messages the replica and its twin take, in turn
		known     string
	}{
		{"bare bodies", []model.Payload{body0, body1}, []model.Payload{cmd0, cmd1}, "known=[65 129]"},
		{"bodies only", []model.Payload{rsm.Bundle{body0, body1}}, []model.Payload{rsm.Bundle{cmd0, cmd1}}, "known=[65 129]"},
		{"bodies and a command", []model.Payload{rsm.Bundle{body1, other, body0}}, []model.Payload{rsm.Bundle{cmd1, other, cmd0}}, "known=[129 7 65]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := func() (*serve.Cluster, model.State) {
				cl := serve.NewCluster(serve.Config{N: n, Slots: 4, Retain: true})
				return cl, cl.Automaton().InitState(0)
			}
			run := func(cl *serve.Cluster, st model.State, msgs []model.Payload) (model.State, []model.Send) {
				var out []model.Send
				for i, pl := range msgs {
					var sends []model.Send
					st, sends = cl.Automaton().Step(0, st, &model.Message{From: 1, To: 0, Seq: uint64(i + 1), Payload: pl}, d)
					out = append(out, sends...)
				}
				return st, out
			}
			cl, st := cluster()
			twin, twinSt := cluster()
			st, got := run(cl, st, tc.got)
			twinSt, want := run(twin, twinSt, tc.want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the replica sent %v, the twin %v", got, want)
			}
			g, w := serve.DebugState(st), serve.DebugState(twinSt)
			if g != w {
				t.Errorf("after the bodies the replica is %s, the twin %s", g, w)
			}
			if !strings.Contains(g, tc.known) {
				t.Errorf("after the bodies the replica is %s, want %s", g, tc.known)
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

// cmdTap fails its test on any step that sends a peer a CMD item, or that
// sends batch bodies to some peers and not the same ones to every peer; it
// counts the body items that rode other traffic and those that went alone.
type cmdTap struct {
	model.Automaton
	t             *testing.T
	n             int
	carried, bare int
}

func (a *cmdTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	bodies := map[model.ProcessID][]int{}
	for _, snd := range sends {
		items, bundled := snd.Payload.(rsm.Bundle)
		if !bundled {
			items = rsm.Bundle{snd.Payload}
		}
		for _, pl := range items {
			switch pl := pl.(type) {
			case rsm.CommandPayload:
				a.t.Fatalf("p%d's step sent %v a CMD item: %v", p, snd.To, snd.Payload)
			case serve.BatchPayload:
				bodies[snd.To] = append(bodies[snd.To], pl.ID)
			}
		}
		if k := len(bodies[snd.To]); k < len(items) {
			a.carried += k
		} else {
			a.bare += k
		}
	}
	for q := model.ProcessID(0); int(q) < a.n && len(bodies) > 0; q++ {
		if q != p && !reflect.DeepEqual(bodies[q], bodies[(p+1)%model.ProcessID(a.n)]) {
			a.t.Fatalf("p%d's step sent bodies %v: not the same to every peer", p, bodies)
		}
	}
	return ns, sends
}

// TestBatchIsTheForward: a batch's body is the only forward of its ID, so
// no step of a serving run sends a CMD item, whether the batch came from
// the initial workload or was sealed from ingress; and a step that sends a
// body sends it to every peer, riding what the step already sends a peer
// where it can (the rsm outbox's owed row).
func TestBatchIsTheForward(t *testing.T) {
	const n = 4
	pattern := model.PatternFromCrashes(n, nil)
	wl := make([][]serve.Batch, n)
	for p := range wl {
		wl[p] = []serve.Batch{{Cmds: []serve.Command{{Client: 50 + uint32(p), Seq: 1, Op: serve.OpPut, Key: 1, Val: 1}}}}
	}
	cl := serve.NewCluster(serve.Config{N: n, Slots: 64, Pipeline: 2, Workload: wl, Target: n + n*6, Retain: true})
	for p := model.ProcessID(0); p < n; p++ {
		for i := 0; i < 6; i++ {
			cl.Ingress(p).Push([]serve.Command{{Client: uint32(p) + 1, Seq: uint64(i + 1), Op: serve.OpPut, Key: uint64(i), Val: int64(i)}})
		}
	}
	sampler := rsm.SamplerForLog(pattern, 60, 7)
	cl.Log().WithSampler(sampler)
	tap := &cmdTap{Automaton: cl.Automaton(), t: t, n: n}
	res, err := sim.Run(sim.Exec{
		Automaton: tap,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(7, 0.8, 3),
		MaxSteps:  400000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil || !res.Stopped {
		t.Fatalf("err = %v, done = %v", err, res != nil && res.Stopped)
	}
	// The run stops once every replica applied every command, so each of
	// the 7 bodies each process minted reached each of its peers: once,
	// since an owed row empties as it is sent.
	if want := n * 7 * (n - 1); tap.carried+tap.bare != want {
		t.Fatalf("%d body items sent, want %d", tap.carried+tap.bare, want)
	}
	t.Logf("%d body items rode other traffic, %d went alone", tap.carried, tap.bare)
}
