package serve_test

import (
	"math/rand"
	"reflect"
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// idleTap checks model.Idler's promise before every step of a served run,
// and pushes client commands into the replicas' ingress queues between
// steps: when the replica says p is idle under the step's d, a λ-step of a
// clone under that d sends nothing and leaves the clone reflect.DeepEqual
// to an unstepped one.
type idleTap struct {
	*serve.Replica
	t      *testing.T
	cl     *serve.Cluster
	rng    *rand.Rand
	pushed int
	total  int
	idle   int // steps before which the replica said idle
	queued int // of those, steps where p's ingress held commands
}

func (a *idleTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if a.Replica.Idle(p, s, d) {
		a.idle++
		if a.cl.Ingress(p).Len() > 0 {
			a.queued++
		}
		stepped, kept := s.CloneState(), s.CloneState()
		ns, sends := a.Replica.Step(p, stepped, nil, d)
		if len(sends) > 0 || !reflect.DeepEqual(ns, kept) {
			a.t.Fatalf("%v said idle under %v, yet its λ-step sent %v\nbefore: %s\nafter:  %s",
				p, d, sends, serve.DebugState(kept), serve.DebugState(ns))
		}
	}
	ns, sends := a.Replica.Step(p, s, m, d)
	if a.pushed < a.total && a.rng.Intn(8) == 0 {
		a.pushed++
		a.cl.Ingress(model.ProcessID(a.rng.Intn(a.Replica.N()))).Push(oneCmd(1, uint64(a.pushed)))
	}
	return ns, sends
}

// TestIdleStepChangesNothing: serve.Replica.Idle is exact where it says
// idle, with client commands arriving in ingress throughout the run —
// among them while the replica's own batch waits for a slot, where a
// queued command does not make the replica busy.
func TestIdleStepChangesNothing(t *testing.T) {
	const total = 40
	for seed := int64(1); seed <= 4; seed++ {
		pattern := model.PatternFromCrashes(3, nil)
		cl := serve.NewCluster(serve.Config{N: 3, Slots: 512, Pipeline: 2, Batch: 4, Target: total})
		sampler := rsm.SamplerForLog(pattern, 60, seed)
		cl.Log().WithSampler(sampler)
		tap := &idleTap{Replica: cl.Automaton(), t: t, cl: cl, rng: rand.New(rand.NewSource(seed)), total: total}
		res, err := sim.Run(sim.Exec{
			Automaton: tap,
			Pattern:   pattern,
			History:   sampler,
			Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
			MaxSteps:  200000,
			StopWhen:  substrate.AllCorrectDecided(pattern),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatalf("seed %d: the cluster never applied all %d commands", seed, total)
		}
		t.Logf("seed %d: idle before %d of %d steps, %d of them with commands queued", seed, tap.idle, res.Steps, tap.queued)
		if tap.idle*20 < res.Steps || tap.queued == 0 {
			t.Errorf("seed %d: idle before %d of %d steps, %d with commands queued: want at least 5%% and some", seed, tap.idle, res.Steps, tap.queued)
		}
	}
}
