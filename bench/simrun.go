package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	_ "nuconsensus/internal/sim" // register the sim substrate
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// simSpec is one in-process workload on the deterministic sim substrate:
// E18's cluster (generated client commands in batches, served off the
// pipelined shared-store log) fed by closed-loop clients, sized so one
// execution takes about a second (half a second with the crash) and a run
// of the benchmark repeats it dozens of times.
type simSpec struct {
	name     string
	n, pipe  int
	workload serve.Workload
	crashAt  model.Time // p0 crashes at this step; 0: no fault
}

var simSpecs = map[string]simSpec{
	wSimSteady: {name: wSimSteady, n: 4, pipe: 2,
		workload: serve.Workload{Commands: 2048, Batch: 8, Clients: 8, Keys: 1024, Zipf: 1.3, QueueFrac: .25}},
	wSimCrash: {name: wSimCrash, n: 4, pipe: 2, crashAt: 750,
		workload: serve.Workload{Commands: 128, Batch: 8, Clients: 8, Keys: 1024, Zipf: 1.3, QueueFrac: .25}},
}

// simStabilize is the failure detector's stabilisation time in ticks,
// cmd/nucd's default.
const simStabilize = 60

// simPass is one execution of a sim workload.
type simPass struct {
	runS    float64
	cpuS    float64
	steps   int
	slots   int // highest decided frontier among the correct replicas
	ackMS   []float64
	acks    map[cmdKey]int
	reg     *obs.Registry
	wire    *simWire
	meter   *simMeter // traced passes only
	final   *model.Configuration
	verdict verdict
}

// simWire wraps the replica automaton on every sim execution and counts
// what the replicas send: messages, and their bytes through the real codec,
// as E18's meter does. The sim substrate hands messages over in memory, so
// this is the only place they have a size. It costs ~30 ns a message against
// ~15 us a step.
type simWire struct {
	model.Automaton
	msgs  int64
	bytes int64
	buf   []byte
}

func (a *simWire) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	a.msgs += int64(len(sends))
	for _, snd := range sends {
		var err error
		if a.buf, err = wire.AppendPayload(a.buf[:0], snd.Payload); err == nil {
			a.bytes += int64(len(a.buf))
		}
	}
	return ns, sends
}

// simMeter wraps the replica automaton for the traced pass: a span per
// Step call (kept as its duration) and each replica's decided frontier
// polled after its step. The sim substrate steps from one goroutine, so
// plain fields suffice. It wraps the clients, so their pushes count as
// step time, not as the driver's.
type simMeter struct {
	model.Automaton
	cl       *serve.Cluster
	correct  model.ProcessSet
	crashAt  int
	steps    int
	stepNS   []float64
	busy     time.Duration // inside Step and inside this meter
	frontier []int
	lastMove []int
	stall    int
}

func (a *simMeter) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	t0 := time.Now()
	ns, sends := a.Automaton.Step(p, s, m, d)
	t1 := time.Now()
	a.steps++
	a.stepNS = append(a.stepNS, float64(t1.Sub(t0)))
	if a.correct.Has(p) {
		if f := a.cl.Applier(p).ReadIndex(); f != a.frontier[p] {
			// Steps since this replica's previous decision, counted from
			// the crash when that came in between.
			if gap := a.steps - max(a.lastMove[p], a.crashAt); a.steps > a.crashAt && gap > a.stall {
				a.stall = gap
			}
			a.frontier[p], a.lastMove[p] = f, a.steps
		}
	}
	a.busy += time.Since(t0)
	return ns, sends
}

// simWindow is how many batches each replica's in-process client keeps
// outstanding: with pipeline 2 and three or four clients the log never
// runs dry, and a command still waits behind a handful of slots only.
const simWindow = 2

// simClients is the sim workloads' load generator: one closed-loop client
// per correct replica, living inside the automaton the substrate steps
// (the sim substrate is single-threaded; this is the only place code can
// run between steps). Before a replica's step, its client tops its window
// up by pushing batches into the replica's ingress queue — the hand-off
// cmd/nucd's batcher uses — and every command carries a waiter at that
// replica's applier, the hook nucd acks from. A command's latency is the
// wall time from its push to its apply there.
type simClients struct {
	model.Automaton
	cl       *serve.Cluster
	pass     *simPass
	queue    [][]serve.Batch // per replica: batches not yet submitted
	inFlight []int           // per replica: batches submitted, not yet fully acked
}

func (c *simClients) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	for c.inFlight[p] < simWindow && len(c.queue[p]) > 0 {
		b := c.queue[p][0]
		c.queue[p] = c.queue[p][1:]
		c.inFlight[p]++
		left, pushed := len(b.Cmds), time.Now()
		for _, cmd := range b.Cmds {
			k := cmdKey{cmd.Client, cmd.Seq}
			c.cl.Applier(p).RegisterWaiter(cmd.Client, cmd.Seq, func(status byte, _ int64) {
				c.pass.acks[k]++
				if status == serve.StatusDup || status == serve.StatusRetired {
					c.pass.verdict.fail(1, "command c%d#%d acknowledged with status %d", k.client, k.seq, status)
				}
				c.pass.ackMS = append(c.pass.ackMS, float64(time.Since(pushed))/1e6)
				if left--; left == 0 {
					c.inFlight[p]--
				}
			})
		}
		c.cl.Ingress(p).Push(b.Cmds)
	}
	return c.Automaton.Step(p, s, m, d)
}

// simCluster is a built, not yet started sim workload.
type simCluster struct {
	cl      *serve.Cluster
	aut     *simClients
	pattern *model.FailurePattern
	correct model.ProcessSet
	sampler *fd.Sampler
}

// buildSim generates the workload from the seed and constructs the cluster
// and its clients around it — the sim workloads' set-up. Commands are
// generated for the correct replicas only: a batch still queued at the
// crashed replica when it dies would be lost, and with it the target.
func buildSim(sp simSpec, seed int64, pass *simPass) *simCluster {
	sc := &simCluster{pattern: model.NewFailurePattern(sp.n)}
	if sp.crashAt > 0 {
		sc.pattern = model.PatternFromCrashes(sp.n, map[model.ProcessID]model.Time{0: sp.crashAt})
	}
	sc.correct = sc.pattern.Correct()
	sc.cl = serve.NewCluster(serve.Config{
		N: sp.n, Slots: 4*sp.workload.Batches() + 64, Pipeline: sp.pipe,
		Target: sp.workload.Commands, Correct: sc.correct,
		Registry: pass.reg, Retain: true,
	})
	sc.cl.Log().WithMetrics(pass.reg)
	sc.sampler = rsm.SamplerForLog(sc.pattern, simStabilize, seed)
	sc.cl.Log().WithSampler(sc.sampler)
	sc.aut = &simClients{
		Automaton: sc.cl.Automaton(), cl: sc.cl, pass: pass,
		queue: make([][]serve.Batch, sp.n), inFlight: make([]int, sp.n),
	}
	wl := sp.workload.Gen(rand.New(rand.NewSource(seed)), sc.correct.Len())
	for i, p := range sc.correct.Slice() {
		sc.aut.queue[p] = wl[i]
	}
	return sc
}

// simSetupSample times buildSim. A build is a few hundred microseconds of
// allocation, so a sample is the mean of ten: each then holds about the same
// share of collector work.
func simSetupSample(sp simSpec, seed int64) float64 {
	t0 := time.Now()
	for j := 0; j < 10; j++ {
		sink = buildSim(sp, seed, &simPass{acks: make(map[cmdKey]int), reg: obs.NewRegistry()})
	}
	return time.Since(t0).Seconds() / 10
}

// runSim builds the cluster and executes it on the sim substrate until
// every correct replica applied every command, or — with maxSteps > 0 —
// for exactly that many steps.
func runSim(sp simSpec, seed int64, traced bool, maxSteps int) (*simPass, error) {
	runtime.GC()
	pass := &simPass{acks: make(map[cmdKey]int), reg: obs.NewRegistry()}
	sc := buildSim(sp, seed, pass)
	pass.wire = &simWire{Automaton: sc.aut}
	var aut model.Automaton = pass.wire
	if traced {
		pass.meter = &simMeter{
			Automaton: aut, cl: sc.cl, correct: sc.correct, crashAt: int(sp.crashAt),
			frontier: make([]int, sp.n), lastMove: make([]int, sp.n),
		}
		aut = pass.meter
	}
	sub, err := substrate.Get("sim")
	if err != nil {
		return nil, err
	}
	opts := substrate.Options{Seed: seed, MaxSteps: 20_000_000, StopWhenDecided: true}
	if maxSteps > 0 {
		opts = substrate.Options{Seed: seed, MaxSteps: maxSteps}
	}
	before, start := selfUsage(), time.Now()
	res, err := sub.Run(context.Background(), aut, sc.sampler, sc.pattern, opts)
	pass.runS = time.Since(start).Seconds()
	after := selfUsage()
	pass.cpuS = after.userS + after.sysS - before.userS - before.sysS
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	pass.steps, pass.final = res.Steps, res.Config
	sc.correct.ForEach(func(p model.ProcessID) {
		if f := sc.cl.Applier(p).StatsOf().Frontier; f > pass.slots {
			pass.slots = f
		}
	})
	if maxSteps == 0 {
		if !res.Decided {
			pass.verdict.fail(1, "step budget exhausted before every command applied")
		}
		checkSim(sc.cl, sc.correct, sp.workload.Commands, pass.acks, &pass.verdict)
	}
	sort.Float64s(pass.ackMS)
	return pass, nil
}

// onOneP runs the sim passes with one P. The sim substrate steps from a
// single goroutine, so a second P only hosts the garbage collector: with it,
// wall time follows whether the host has a second core free that second
// (and CPU time reads 1.2-1.4x wall time); without it, the timings the
// per-layer pass takes are the CPU the execution costs, collector included.
// The returned func restores the setting.
func onOneP() func() {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// simEndToEnd executes the workload again and again until dur has passed
// and reports totals over the executions: their steps and wire bytes over
// their decided slots. Each execution draws its own seed from the run's:
// commands, schedule and detector histories all follow the seed, and one
// schedule costs a few percent more steps than another, so a run sums over
// dozens of executions. Set-up is sampled before every execution, so that
// the samples are spread over the host's fast and slow stretches, and the
// mean of their middle half is reported for the same reason.
func simEndToEnd(sp simSpec, seed int64, dur time.Duration) (metricSet, verdict, error) {
	defer onOneP()()
	var setup []float64
	var steps, bytes, slots float64
	var v verdict
	reps := 0
	for begin := time.Now(); reps < 3 || time.Since(begin) < dur; reps++ {
		exSeed := fd.DeriveSeed(fmt.Sprint("execution", reps), seed)
		setup = append(setup, simSetupSample(sp, exSeed))
		pass, err := runSim(sp, exSeed, false, 0)
		if err != nil {
			return nil, v, err
		}
		steps, bytes, slots = steps+float64(pass.steps), bytes+float64(pass.wire.bytes), slots+float64(pass.slots)
		v.add(pass.verdict)
	}
	m := metricSet{}
	m.set("setup_s", midmean(setup), len(setup))
	m.set("steps_per_slot", steps/slots, int(slots))
	m.set("bytes_per_slot", bytes/slots, int(slots))
	return m, v, nil
}

// simLayers runs the workload once bare and once under the meter and
// fills the per-layer metrics the sim substrate yields.
func simLayers(sp simSpec, seed int64, m metricSet) (verdict, error) {
	defer onOneP()()
	bare, err := runSim(sp, seed, false, 0)
	if err != nil {
		return verdict{}, err
	}
	traced, err := runSim(sp, seed, true, 0)
	if err != nil {
		return bare.verdict, err
	}
	v := bare.verdict
	v.add(traced.verdict)
	if traced.steps != bare.steps {
		v.fail(1, "metered run took %d steps, bare run %d", traced.steps, bare.steps)
	}
	mt := traced.meter
	slots, steps := float64(bare.slots), float64(bare.steps)
	m.set("throughput_ops_s", float64(sp.workload.Commands)/bare.runS, sp.workload.Commands)
	m.set("server_cpu_ms_per_op", 1e3*bare.cpuS/float64(sp.workload.Commands), sp.workload.Commands)
	m.set("write_p50_ms", percentile(bare.ackMS, 0.50), len(bare.ackMS))
	m.set("write_p95_ms", tail(bare.ackMS, 0.95), len(bare.ackMS))
	m.set("sim_run_s", bare.runS, 1)
	m.set("sim_cmds_per_kstep", 1e3*float64(sp.workload.Commands)/steps, bare.steps)
	m.set("crash_stall_steps", float64(mt.stall), bare.slots)
	m.set("fail_frac", v.failFrac(), v.attempted)
	m.set("server_peak_rss_mb", selfUsage().peakRSSMB, 1)
	m.set("rsm.steps_per_slot", steps/slots, bare.slots)
	m.set("rsm.slots_per_s", slots/bare.runS, bare.slots)
	m.set("consensus.msgs_per_slot", float64(bare.wire.msgs)/slots, bare.slots)
	m.set("wire.bytes_per_slot", float64(bare.wire.bytes)/slots, bare.slots)
	m.set("sim.steps_per_s", steps/bare.runS, bare.steps)
	m.set("sim.sched_ns_per_step", float64(time.Duration(traced.runS*1e9)-mt.busy)/float64(mt.steps), mt.steps)
	m.set("obs.trace_overhead_frac", traced.runS/bare.runS-1, 1)

	// The appliers share their counters; the crashed replica's stopped
	// counting at the crash, so the survivors are the replicas here.
	counterLayers(func(name string) float64 { return float64(bare.reg.Counter(name).Value()) },
		float64(mt.correct.Len()), slots, m)
	return v, nil
}
