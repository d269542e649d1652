package serve_test

import (
	"math/rand"
	"reflect"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// wireTap fails its test on any send of the wrapped automaton that does not
// encode, or that decodes to anything but the payload sent; it counts the
// sends, the history frames with adds, the batch bodies and the leader
// announcements it checked.
type wireTap struct {
	model.Automaton
	t                         *testing.T
	sends, adds, bodies, flws int
}

func (a *wireTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	for _, snd := range sends {
		b, err := wire.EncodePayload(snd.Payload)
		if err != nil {
			a.t.Fatalf("p%d's send to %v does not encode: %v: %v", p, snd.To, snd.Payload, err)
		}
		got, err := wire.DecodePayload(b)
		if err != nil || !reflect.DeepEqual(got, snd.Payload) {
			a.t.Fatalf("p%d's send to %v decodes as %#v (err %v), sent %#v", p, snd.To, got, err, snd.Payload)
		}
		a.sends++
		items, bundled := snd.Payload.(rsm.Bundle)
		if !bundled {
			items = rsm.Bundle{snd.Payload}
		}
		for _, pl := range items {
			switch pl := pl.(type) {
			case serve.BatchPayload:
				a.bodies++
			case rsm.FollowPayload:
				a.flws++
			case rsm.SlotPayload:
				switch in := pl.Inner.(type) {
				case consensus.LeadDeltaPayload:
					a.adds += min(len(in.Delta.Adds), 1)
				case consensus.ProposalDeltaPayload:
					a.adds += min(len(in.Delta.Adds), 1)
				}
			}
		}
	}
	return ns, sends
}

// TestRealTrafficRoundTrips: every message of a serving run shaped like
// E18's and the benchmark's sim pair — n = 4, pipeline 2, batches of 8 from
// the workload plus one-command ingress batches — encodes through the wire
// codec and decodes to exactly what was sent, once fault-free and once with
// p0 crashed mid-run (the shape of TestPipelinedCrashMidWindow: p0 brings no
// commands). The run must carry leader announcements (FLW) too. A send the
// codec rejected would otherwise only read as fewer bytes in a byte count.
func TestRealTrafficRoundTrips(t *testing.T) {
	const n, pushes = 4, 8
	shape := serve.Workload{Commands: 128, Batch: 8, Clients: 8, Keys: 1024, Zipf: 1.3, QueueFrac: .25}
	for _, tc := range []struct {
		name    string
		crashes map[model.ProcessID]model.Time
	}{
		{"fault-free", nil},
		{"crash", map[model.ProcessID]model.Time{0: 150}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := model.ProcessID(0) // the first process bringing commands
			if tc.crashes != nil {
				first = 1
			}
			wl := append(make([][]serve.Batch, first), shape.Gen(rand.New(rand.NewSource(7)), n-int(first))...)
			pattern := model.PatternFromCrashes(n, tc.crashes)
			cl := serve.NewCluster(serve.Config{
				N: n, Slots: 4*shape.Batches() + 64, Pipeline: 2, Workload: wl,
				Target: countWorkload(wl) + (n-int(first))*pushes, Correct: pattern.Correct(),
			})
			for p := first; p < n; p++ {
				for i := 0; i < pushes; i++ {
					cl.Ingress(p).Push([]serve.Command{{Client: 100 + uint32(p), Seq: uint64(i + 1), Op: serve.OpPut, Key: uint64(i), Val: int64(p)}})
				}
			}
			sampler := rsm.SamplerForLog(pattern, 60, 7)
			cl.Log().WithSampler(sampler)
			tap := &wireTap{Automaton: cl.Automaton(), t: t}
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
			if tc.crashes != nil && res.Steps <= int(tc.crashes[0]) {
				t.Fatalf("the run ended at step %d, before p0's crash at step %d", res.Steps, tc.crashes[0])
			}
			if tap.adds == 0 || tap.bodies == 0 || tap.flws == 0 {
				t.Fatalf("%d sends, %d history frames with adds, %d batch bodies, %d FLWs: the test lost its premise", tap.sends, tap.adds, tap.bodies, tap.flws)
			}
			t.Logf("%d sends round-tripped (%d history frames with adds, %d batch bodies, %d FLWs) in %d steps", tap.sends, tap.adds, tap.bodies, tap.flws, res.Steps)
		})
	}
}
