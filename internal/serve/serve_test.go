package serve_test

import (
	"math"
	"math/rand"
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// runCluster drives a serving cluster to its target on the sim substrate
// and returns it alongside the run: Stopped says whether every correct
// replica got there.
func runCluster(t *testing.T, cfg serve.Config, crashes map[model.ProcessID]model.Time, stabilize model.Time, seed int64) (*serve.Cluster, *substrate.Result) {
	t.Helper()
	pattern := model.PatternFromCrashes(cfg.N, crashes)
	cfg.Correct = pattern.Correct()
	cl := serve.NewCluster(cfg)
	sampler := rsm.SamplerForLog(pattern, stabilize, seed)
	cl.Log().WithSampler(sampler)
	res, err := sim.Run(sim.Exec{
		Automaton: cl.Automaton(),
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  400000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, res
}

// countWorkload sums the commands in a generated workload.
func countWorkload(wl [][]serve.Batch) int {
	n := 0
	for _, bs := range wl {
		for _, b := range bs {
			n += len(b.Cmds)
		}
	}
	return n
}

// TestServeExactlyOnce: a generated workload lands exactly once on every
// correct replica — equal command counts, equal machine checksums — even
// with a crash and slot pipelining in play.
func TestServeExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wl := serve.Workload{Commands: 48, Batch: 4, Clients: 6, Keys: 32, Zipf: 1.3, QueueFrac: 0.25}.Gen(rng, 4)
		total := countWorkload(wl)
		cfg := serve.Config{
			N: 4, Slots: 30, Pipeline: 2,
			Workload: wl, Target: total, Retain: true,
		}
		crashes := map[model.ProcessID]model.Time{3: 70}
		cl, res := runCluster(t, cfg, crashes, 80, seed)
		if !res.Stopped {
			t.Fatalf("seed=%d: cluster never reached target", seed)
		}
		pattern := model.PatternFromCrashes(4, crashes)
		var refSum uint64
		var refSet bool
		pattern.Correct().ForEach(func(p model.ProcessID) {
			st := cl.Applier(p).StatsOf()
			if st.Commands != int64(total) {
				t.Fatalf("seed=%d: p%d applied %d distinct commands, want %d", seed, p, st.Commands, total)
			}
			sum := cl.Applier(p).Checksum()
			if !refSet {
				refSum, refSet = sum, true
			} else if sum != refSum {
				t.Fatalf("seed=%d: p%d machine checksum %x != %x", seed, p, sum, refSum)
			}
		})
	}
}

// TestDuplicateSuppression: the same (client, seq) command submitted in
// two different batches through two different origin replicas — the
// reconnect-and-retry shape — applies exactly once, and the duplicate is
// counted as suppressed.
func TestDuplicateSuppression(t *testing.T) {
	dup := serve.Command{Client: 9, Seq: 1, Op: serve.OpQPush, Key: 5, Val: 42}
	wl := [][]serve.Batch{
		{{Cmds: []serve.Command{dup, {Client: 9, Seq: 2, Op: serve.OpQPush, Key: 5, Val: 43}}}},
		{{Cmds: []serve.Command{dup}}}, // the retry via another node
		nil,
	}
	// No target: run to log-full so the retry batch is guaranteed to have
	// been decided (a command-count target could be met before it lands).
	cfg := serve.Config{N: 3, Slots: 8, Workload: wl, Retain: true}
	cl, res := runCluster(t, cfg, nil, 60, 7)
	if !res.Stopped {
		t.Fatal("cluster never filled its log")
	}
	for p := model.ProcessID(0); p < 3; p++ {
		st := cl.Applier(p).StatsOf()
		if st.Commands != 2 {
			t.Fatalf("p%d applied %d distinct commands, want 2", p, st.Commands)
		}
		if st.Dups < 1 {
			t.Fatalf("p%d suppressed %d duplicates, want >= 1", p, st.Dups)
		}
	}
}

// TestUnboundedLogReachesTarget: the capacity cmd/nucd builds its
// cluster with, math.MaxInt slots, allocates nothing by capacity and stops
// on the command target alone: every replica applies every command and the
// machines agree.
func TestUnboundedLogReachesTarget(t *testing.T) {
	const n = 3
	shape := serve.Workload{Commands: 96, Batch: 8, Clients: 4, Keys: 64, QueueFrac: .25}
	wl := shape.Gen(rand.New(rand.NewSource(3)), n)
	total := countWorkload(wl)
	cfg := serve.Config{N: n, Slots: math.MaxInt, Pipeline: 2, Workload: wl, Target: total}
	cl, res := runCluster(t, cfg, nil, 60, 3)
	if !res.Stopped {
		t.Fatalf("cluster never reached its target of %d commands", total)
	}
	for p := model.ProcessID(0); p < n; p++ {
		if got := cl.Applier(p).StatsOf().Commands; got != int64(total) {
			t.Errorf("p%d applied %d distinct commands, want %d", p, got, total)
		}
		if cl.Applier(p).Checksum() != cl.Applier(0).Checksum() {
			t.Errorf("p%d's machine differs from p0's", p)
		}
	}
}

// entryCheck wraps a replica automaton and fails the test when a step
// leaves an entry in the replica's log state.
type entryCheck struct {
	model.Automaton
	t *testing.T
}

func (a entryCheck) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, out := a.Automaton.Step(p, s, m, d)
	if kept := serve.LogStateOf(ns).(rsm.LogHolder).Entries(); len(kept) != 0 {
		a.t.Fatalf("p%d's log state holds %v after a step", p, kept)
	}
	return ns, out
}

// TestReplicaKeepsNoEntries: a replica hands its applier what each step of
// its log appended and keeps none of it, so its log state holds no entry
// after any step — with a pipeline and a crash in play, on a log of
// unbounded capacity — while every correct applier still applies every
// command.
func TestReplicaKeepsNoEntries(t *testing.T) {
	const n, seed = 4, 5
	wl := serve.Workload{Commands: 48, Batch: 4, Clients: 6, Keys: 32, QueueFrac: .25}.Gen(rand.New(rand.NewSource(seed)), n)
	total := countWorkload(wl)
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{3: 150})
	cl := serve.NewCluster(serve.Config{N: n, Slots: math.MaxInt, Pipeline: 2, Workload: wl, Target: total, Correct: pattern.Correct()})
	sampler := rsm.SamplerForLog(pattern, 60, seed)
	cl.Log().WithSampler(sampler)
	res, err := sim.Run(sim.Exec{
		Automaton: entryCheck{Automaton: cl.Automaton(), t: t},
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  400000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("cluster never reached its target of %d commands", total)
	}
	pattern.Correct().ForEach(func(p model.ProcessID) {
		if got := cl.Applier(p).StatsOf().Commands; got != int64(total) {
			t.Errorf("p%d applied %d distinct commands, want %d", p, got, total)
		}
	})
}

// TestReadIndexUnderCrash: with the initial leader candidate crashed, a
// correct replica's read-index read still returns the committed value, and
// the read index never exceeds what the applier has observed decided.
func TestReadIndexUnderCrash(t *testing.T) {
	cmds := []serve.Command{
		{Client: 1, Seq: 1, Op: serve.OpPut, Key: 11, Val: 100},
		{Client: 1, Seq: 2, Op: serve.OpPut, Key: 11, Val: 200},
		{Client: 2, Seq: 1, Op: serve.OpPut, Key: 12, Val: 300},
	}
	wl := [][]serve.Batch{nil, {{Cmds: cmds[:2]}}, {{Cmds: cmds[2:]}}}
	// Process 0 — the stable-leader candidate every Ω history favors — is
	// crashed early, so decisions must come from the survivors.
	crashes := map[model.ProcessID]model.Time{0: 20}
	cfg := serve.Config{N: 3, Slots: 8, Workload: wl, Target: 3, Retain: true}
	cl, res := runCluster(t, cfg, crashes, 80, 11)
	if !res.Stopped {
		t.Fatal("cluster never reached target")
	}
	for p := model.ProcessID(1); p < 3; p++ {
		ap := cl.Applier(p)
		if v, ok := ap.GetLin(11); !ok || v != 200 {
			t.Fatalf("p%d lin-read key 11 = (%d,%v), want (200,true)", p, v, ok)
		}
		if v, ok := ap.Get(12); !ok || v != 300 {
			t.Fatalf("p%d eventual-read key 12 = (%d,%v), want (300,true)", p, v, ok)
		}
		st := ap.StatsOf()
		if ap.ReadIndex() != st.Frontier {
			t.Fatalf("p%d read index %d != frontier %d", p, ap.ReadIndex(), st.Frontier)
		}
		if st.Applied > st.Frontier {
			t.Fatalf("p%d applied %d beyond frontier %d", p, st.Applied, st.Frontier)
		}
	}
}

// TestPipelinedCrashMidWindow: the benchmark's crash shape — four
// replicas, a window of two, 128 commands in batches of 8 from the three
// survivors — with p0 crashed while slots are in flight: it has appended
// some of the log, and the run goes on well past the crash. Every survivor
// applies every command exactly once and the machines agree.
func TestPipelinedCrashMidWindow(t *testing.T) {
	const n, crashAt = 4, 150
	shape := serve.Workload{Commands: 128, Batch: 8, Clients: 8, Keys: 1024, Zipf: 1.3, QueueFrac: .25}
	for seed := int64(1); seed <= 3; seed++ {
		wl := shape.Gen(rand.New(rand.NewSource(seed)), n-1)
		total := countWorkload(wl)
		cfg := serve.Config{
			N: n, Slots: 4*shape.Batches() + 64, Pipeline: 2,
			Workload: append([][]serve.Batch{nil}, wl...), Target: total, Retain: true,
		}
		crashes := map[model.ProcessID]model.Time{0: crashAt}
		cl, res := runCluster(t, cfg, crashes, 60, seed)
		if !res.Stopped {
			t.Fatalf("seed=%d: survivors never reached target after p0 crashed at step %d", seed, crashAt)
		}
		crashed, survived := cl.Applier(0).StatsOf().Frontier, cl.Applier(1).StatsOf().Frontier
		if res.Steps <= crashAt || crashed == 0 || crashed >= survived {
			t.Fatalf("seed=%d: run of %d steps, p0 appended %d slots before its crash at step %d and p1 %d: want the crash mid-run, with slots in flight",
				seed, res.Steps, crashed, crashAt, survived)
		}
		var refSum uint64
		for p := model.ProcessID(1); p < n; p++ {
			st := cl.Applier(p).StatsOf()
			if st.Commands != int64(total) {
				t.Fatalf("seed=%d: p%d applied %d distinct commands, want %d", seed, p, st.Commands, total)
			}
			if sum := cl.Applier(p).Checksum(); p == 1 {
				refSum = sum
			} else if sum != refSum {
				t.Fatalf("seed=%d: p%d machine checksum %x != %x", seed, p, sum, refSum)
			}
		}
	}
}

// TestPipelinedOrderingAdversarial: table-driven pipelined runs under
// short-stabilization (adversarial) FD histories — decided prefixes agree
// across correct replicas and commands never apply twice.
func TestPipelinedOrderingAdversarial(t *testing.T) {
	cases := []struct {
		name      string
		depth     int
		stabilize model.Time
		crashes   map[model.ProcessID]model.Time
	}{
		{"depth2-noisy", 2, 30, nil},
		{"depth4-noisy", 4, 30, map[model.ProcessID]model.Time{4: 50}},
		{"depth4-calm", 4, 100, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed * 101))
				wl := serve.Workload{Commands: 30, Batch: 3, Clients: 5, Keys: 16, Zipf: 1.2}.Gen(rng, 5)
				total := countWorkload(wl)
				cfg := serve.Config{N: 5, Slots: 24, Pipeline: tc.depth, Workload: wl, Target: total, Retain: true}
				cl, res := runCluster(t, cfg, tc.crashes, tc.stabilize, seed)
				if !res.Stopped {
					t.Fatalf("seed=%d: cluster never reached target", seed)
				}
				pattern := model.PatternFromCrashes(5, tc.crashes)
				var ref []int
				pattern.Correct().ForEach(func(p model.ProcessID) {
					got := cl.Applier(p).Decided()
					if ref == nil {
						ref = got
						return
					}
					short := len(ref)
					if len(got) < short {
						short = len(got)
					}
					for i := 0; i < short; i++ {
						if got[i] != ref[i] {
							t.Fatalf("seed=%d: decided prefixes diverge at slot %d", seed, i)
						}
					}
				})
				pattern.Correct().ForEach(func(p model.ProcessID) {
					if got := cl.Applier(p).StatsOf().Commands; got != int64(total) {
						t.Fatalf("seed=%d: p%d applied %d commands, want %d", seed, p, got, total)
					}
				})
			}
		})
	}
}

// TestApplierStallsOnMissingBody: decided entries wait, in order, for
// their batch body; the body's arrival unstalls them and wakes read-index
// waiters.
func TestApplierStallsOnMissingBody(t *testing.T) {
	ap := serve.NewApplier(0, obs.NewRegistry(), true)
	id := serve.BatchID(1, 0)
	ap.OnEntry(0, 0, id) // decided before the body gossip arrived
	if st := ap.StatsOf(); st.Applied != 0 || st.Frontier != 1 || st.Stalled != 1 {
		t.Fatalf("pre-body stats = %+v", st)
	}
	// A linearizable read taken now must wait for slot 0 — verify the
	// index snapshot, then deliver the body and check it unstalled.
	if idx := ap.ReadIndex(); idx != 1 {
		t.Fatalf("read index = %d, want 1", idx)
	}
	done := make(chan int64, 1)
	ap.RegisterWaiter(7, 1, func(_ byte, v int64) { done <- v })
	ap.PutBody(id, []serve.Command{{Client: 7, Seq: 1, Op: serve.OpPut, Key: 3, Val: 55}})
	if st := ap.StatsOf(); st.Applied != 1 || st.Stalled != 0 || st.Commands != 1 {
		t.Fatalf("post-body stats = %+v", st)
	}
	ap.WaitApplied(1)
	if v := <-done; v != 55 {
		t.Fatalf("waiter got %d, want 55", v)
	}
	if v, ok := ap.GetLin(3); !ok || v != 55 {
		t.Fatalf("lin read = (%d,%v), want (55,true)", v, ok)
	}
}

// TestDupBatchAfterCompaction: a batch can decide a second time after the
// retirement floor compacted its body away (a pipelined re-proposal in
// flight at compaction time). The applier must recognize the duplicate by
// its batchAt entry and skip it — not stall forever on the missing body.
func TestDupBatchAfterCompaction(t *testing.T) {
	ap := serve.NewApplier(0, obs.NewRegistry(), false)
	id := serve.BatchID(2, 0)
	ap.PutBody(id, []serve.Command{{Client: 1, Seq: 1, Op: serve.OpPut, Key: 5, Val: 9}})
	ap.OnEntry(0, 0, id)
	ap.Compact(1) // floor above slot 0: body dropped, bookkeeping kept
	ap.OnEntry(0, 1, id)
	st := ap.StatsOf()
	if st.Applied != 2 || st.Stalled != 0 {
		t.Fatalf("post-dup stats = %+v, want applied=2 stalled=0", st)
	}
	if st.Commands != 1 {
		t.Fatalf("commands = %d, want exactly-once 1", st.Commands)
	}
	if v, ok := ap.GetLin(5); !ok || v != 9 {
		t.Fatalf("lin read = (%d,%v), want (9,true)", v, ok)
	}
}

// TestSessionsOutOfOrder: the applied set is exact — a later seq landing
// first must not suppress the earlier seq when it finally arrives (the
// pipelined-reorder hazard), and the contiguous frontier catches up.
func TestSessionsOutOfOrder(t *testing.T) {
	s := serve.NewSessions()
	s.Record(1, 3, 0, serve.StatusOK, 30)
	if s.Applied(1, 1) || s.Applied(1, 2) {
		t.Fatal("high-water suppression: seqs 1,2 wrongly marked applied")
	}
	if !s.Applied(1, 3) {
		t.Fatal("seq 3 not marked applied")
	}
	s.Record(1, 1, 1, serve.StatusOK, 10)
	s.Record(1, 2, 1, serve.StatusOK, 20)
	for seq := uint64(1); seq <= 3; seq++ {
		if !s.Applied(1, seq) {
			t.Fatalf("seq %d not applied after catch-up", seq)
		}
		r, hit := s.Reply(1, seq)
		if !hit {
			t.Fatalf("seq %d reply not cached", seq)
		}
		_ = r
	}
}

// TestSessionsCompact: compaction drops cached replies of pre-floor
// sessions but never the exactly-once bookkeeping.
func TestSessionsCompact(t *testing.T) {
	s := serve.NewSessions()
	s.Record(1, 1, 2, serve.StatusOK, 10)
	s.Record(2, 1, 9, serve.StatusOK, 20)
	if n := s.Compact(5); n != 1 {
		t.Fatalf("compacted %d sessions, want 1", n)
	}
	if !s.Applied(1, 1) {
		t.Fatal("compaction dropped applied-seq bookkeeping")
	}
	if _, hit := s.Reply(1, 1); hit {
		t.Fatal("compaction left the cached reply")
	}
	if _, hit := s.Reply(2, 1); !hit {
		t.Fatal("compaction dropped a live session's reply")
	}
}

// TestMachineChecksum: order-of-insertion must not affect the digest, and
// any state difference must.
func TestMachineChecksum(t *testing.T) {
	a, b := serve.NewMachine(), serve.NewMachine()
	a.Apply(serve.Command{Op: serve.OpPut, Key: 1, Val: 10})
	a.Apply(serve.Command{Op: serve.OpPut, Key: 2, Val: 20})
	b.Apply(serve.Command{Op: serve.OpPut, Key: 2, Val: 20})
	b.Apply(serve.Command{Op: serve.OpPut, Key: 1, Val: 10})
	if a.Checksum() != b.Checksum() {
		t.Fatal("insertion order changed the checksum")
	}
	b.Apply(serve.Command{Op: serve.OpQPush, Key: 1, Val: 1})
	if a.Checksum() == b.Checksum() {
		t.Fatal("queue state not covered by the checksum")
	}
}

// TestMachineOps covers the op surface incl. miss paths.
func TestMachineOps(t *testing.T) {
	m := serve.NewMachine()
	if _, st := m.Apply(serve.Command{Op: serve.OpDel, Key: 1}); st != serve.StatusMissing {
		t.Fatal("deleting an absent key must report missing")
	}
	if _, st := m.Apply(serve.Command{Op: serve.OpQPop, Key: 1}); st != serve.StatusMissing {
		t.Fatal("popping an empty queue must report missing")
	}
	m.Apply(serve.Command{Op: serve.OpQPush, Key: 1, Val: 5})
	m.Apply(serve.Command{Op: serve.OpQPush, Key: 1, Val: 6})
	if v, st := m.Apply(serve.Command{Op: serve.OpQPop, Key: 1}); st != serve.StatusOK || v != 5 {
		t.Fatalf("pop = (%d,%d), want FIFO 5", v, st)
	}
	m.Apply(serve.Command{Op: serve.OpPut, Key: 2, Val: 9})
	if v, st := m.Apply(serve.Command{Op: serve.OpGet, Key: 2}); st != serve.StatusOK || v != 9 {
		t.Fatalf("logged get = (%d,%d)", v, st)
	}
	if v, st := m.Apply(serve.Command{Op: serve.OpDel, Key: 2}); st != serve.StatusOK || v != 9 {
		t.Fatalf("del = (%d,%d)", v, st)
	}
}

// TestBatchIDPacking: IDs are positive, collision-free across origins and
// indexes, and recover their origin.
func TestBatchIDPacking(t *testing.T) {
	seen := map[int]bool{}
	for p := model.ProcessID(0); p < 8; p++ {
		for i := 0; i < 100; i++ {
			id := serve.BatchID(p, i)
			if id <= 0 {
				t.Fatalf("BatchID(%d,%d) = %d, not positive", p, i, id)
			}
			if seen[id] {
				t.Fatalf("BatchID(%d,%d) = %d collides", p, i, id)
			}
			seen[id] = true
			if serve.BatchOrigin(id) != p {
				t.Fatalf("BatchOrigin(%d) = %d, want %d", id, serve.BatchOrigin(id), p)
			}
		}
	}
}

// TestIngressDrain: pushed groups surface through the replica into the
// log even when the cluster starts with no initial workload.
func TestIngressDrain(t *testing.T) {
	cfg := serve.Config{N: 3, Slots: 6, Target: 2, Retain: true}
	pattern := model.PatternFromCrashes(3, nil)
	cl := serve.NewCluster(cfg)
	sampler := rsm.SamplerForLog(pattern, 60, 5)
	cl.Log().WithSampler(sampler)
	cl.Ingress(0).Push([]serve.Command{
		{Client: 1, Seq: 1, Op: serve.OpPut, Key: 1, Val: 7},
		{Client: 1, Seq: 2, Op: serve.OpPut, Key: 2, Val: 8},
	})
	res, err := sim.Run(sim.Exec{
		Automaton: cl.Automaton(),
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(5, 0.8, 3),
		MaxSteps:  200000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("ingress batch never applied everywhere")
	}
	for p := model.ProcessID(0); p < 3; p++ {
		if v, ok := cl.Applier(p).Get(2); !ok || v != 8 {
			t.Fatalf("p%d key 2 = (%d,%v), want (8,true)", p, v, ok)
		}
	}
}
