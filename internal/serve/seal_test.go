package serve_test

import (
	"bytes"
	"reflect"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// sealTap watches p0's ingress around each of p0's steps: while an own
// batch waits for a slot (rsm.OwnWaiting) the step seals nothing, and
// otherwise a step that finds commands queued seals some. After p0's first
// step it pushes the later groups, which then queue behind the batch that
// step sealed.
type sealTap struct {
	model.Automaton
	t     *testing.T
	in    *serve.Ingress
	later [][]serve.Command
	held  int // p0 steps that found commands queued while an own batch waited
}

func (a *sealTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if p != 0 {
		return a.Automaton.Step(p, s, m, d)
	}
	waiting, queued := rsm.OwnWaiting(serve.LogStateOf(s)), a.in.Len()
	ns, sends := a.Automaton.Step(p, s, m, d)
	switch left := a.in.Len(); {
	case queued == 0:
	case waiting && left != queued:
		a.t.Errorf("p0 sealed %d commands while an own batch waited for a slot", queued-left)
	case waiting:
		a.held++
	case left == queued:
		a.t.Errorf("p0's log was free, yet %d queued commands stayed queued", queued)
	}
	for _, g := range a.later {
		a.in.Push(g)
	}
	a.later = nil
	return ns, sends
}

// oneCmd is a one-command group, as cmd/nucd pushes a write.
func oneCmd(client uint32, seq uint64) []serve.Command {
	return []serve.Command{{Client: client, Seq: seq, Op: serve.OpPut, Key: seq, Val: int64(seq)}}
}

// sealRun drives a fault-free 3-process, pipeline-2 cluster with the given
// Batch until every replica applied every command. p0's ingress holds the
// first groups before the run; the later ones are pushed after p0's first
// step. It returns p0's sealed batches as command sequence numbers, in
// seal order, and the whole span stream.
func sealRun(t *testing.T, batch int, first, later [][]serve.Command) ([][]uint64, []obs.SpanEvent) {
	t.Helper()
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf, nil, nil)
	total := 0
	for _, g := range append(append([][]serve.Command(nil), first...), later...) {
		total += len(g)
	}
	pattern := model.PatternFromCrashes(3, nil)
	cl := serve.NewCluster(serve.Config{N: 3, Slots: 64, Pipeline: 2, Batch: batch, Target: total, Retain: true, Tracer: tracer})
	sampler := rsm.SamplerForLog(pattern, 60, 5)
	cl.Log().WithSampler(sampler)
	for _, g := range first {
		cl.Ingress(0).Push(g)
	}
	tap := &sealTap{Automaton: cl.Automaton(), t: t, in: cl.Ingress(0), later: later}
	res, err := sim.Run(sim.Exec{
		Automaton: tap,
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
		t.Fatal("the cluster never applied every command")
	}
	if tap.held == 0 {
		t.Fatal("p0 never found commands queued behind a waiting batch: the run lost its premise")
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sealed [][]uint64
	at := map[int]int{} // batch ID → index in sealed
	for _, ev := range evs {
		if ev.Stage != obs.StageSeal {
			continue
		}
		i, ok := at[ev.Batch]
		if !ok {
			i = len(sealed)
			at[ev.Batch] = i
			sealed = append(sealed, nil)
		}
		sealed[i] = append(sealed[i], ev.Seq)
	}
	return sealed, evs
}

// seqs lists the sequence numbers lo..hi.
func seqs(lo, hi uint64) []uint64 {
	var s []uint64
	for q := lo; q <= hi; q++ {
		s = append(s, q)
	}
	return s
}

// laterGroups is twenty one-command writes of client 1, seq 2..21.
func laterGroups() [][]serve.Command {
	var gs [][]serve.Command
	for seq := uint64(2); seq <= 21; seq++ {
		gs = append(gs, oneCmd(1, seq))
	}
	return gs
}

// TestSealBatchZeroTakesOneGroup: with Batch 0 every sealed batch is
// exactly one pushed group, however many queue behind it.
func TestSealBatchZeroTakesOneGroup(t *testing.T) {
	first := [][]serve.Command{
		{{Client: 2, Seq: 1, Op: serve.OpPut, Key: 1, Val: 1}, {Client: 2, Seq: 2, Op: serve.OpPut, Key: 2, Val: 2}, {Client: 2, Seq: 3, Op: serve.OpPut, Key: 3, Val: 3}},
		{{Client: 2, Seq: 4, Op: serve.OpPut, Key: 4, Val: 4}, {Client: 2, Seq: 5, Op: serve.OpPut, Key: 5, Val: 5}},
		oneCmd(1, 1),
	}
	sealed, _ := sealRun(t, 0, first, laterGroups())
	want := [][]uint64{{1, 2, 3}, {4, 5}}
	for seq := uint64(1); seq <= 21; seq++ {
		want = append(want, []uint64{seq})
	}
	if !reflect.DeepEqual(sealed, want) {
		t.Errorf("p0 sealed %v, want one pushed group per batch: %v", sealed, want)
	}
}

// TestSealMergesQueuedGroups: with Batch 16, the one-command groups that
// queue while p0's first batch waits for a slot are sealed together, as
// whole groups of at most 16 commands, in push order.
func TestSealMergesQueuedGroups(t *testing.T) {
	sealed, _ := sealRun(t, 16, [][]serve.Command{oneCmd(1, 1)}, laterGroups())
	if want := [][]uint64{{1}, seqs(2, 17), seqs(18, 21)}; !reflect.DeepEqual(sealed, want) {
		t.Errorf("p0 sealed %v, want %v", sealed, want)
	}
}

// TestSealSpanBeforeInject: every command has a seal span and, after it in
// the stream, an inject span at the node that sealed it.
func TestSealSpanBeforeInject(t *testing.T) {
	_, evs := sealRun(t, 16, [][]serve.Command{oneCmd(1, 1)}, laterGroups())
	type key struct {
		c   uint32
		seq uint64
	}
	sealAt := map[key]int{}
	injected := 0
	for i, ev := range evs {
		k := key{ev.Client, ev.Seq}
		switch ev.Stage {
		case obs.StageSeal:
			sealAt[k] = i
		case obs.StageInject:
			injected++
			if j, ok := sealAt[k]; !ok || evs[j].P != ev.P || evs[j].Batch != ev.Batch {
				t.Errorf("c%d#%d injected as batch %d at p%d with no seal span before it", k.c, k.seq, ev.Batch, ev.P)
			}
		}
	}
	if injected != 21 || len(sealAt) != 21 {
		t.Errorf("%d seal and %d inject spans, want 21 of each", len(sealAt), injected)
	}
}

// TestIdleReplicaSealsOnNextStep: a command pushed to a replica with no own
// batch waiting is sealed and injected by that replica's very next step —
// no clock decides when.
func TestIdleReplicaSealsOnNextStep(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf, nil, nil)
	cl := serve.NewCluster(serve.Config{N: 3, Slots: 8, Pipeline: 2, Batch: 16, Tracer: tracer})
	st := cl.Automaton().InitState(0)
	if rsm.OwnWaiting(serve.LogStateOf(st)) {
		t.Fatal("a fresh replica has an own batch waiting")
	}
	cl.Ingress(0).Push(oneCmd(1, 1))
	d := fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: model.FullSet(3)}}
	cl.Automaton().Step(0, st, nil, d)
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, ev := range evs {
		stages = append(stages, ev.Stage)
	}
	if want := []string{obs.StageSeal, obs.StageInject}; !reflect.DeepEqual(stages, want) || cl.Ingress(0).Len() != 0 {
		t.Errorf("the step after the push emitted %v and left %d commands queued, want %v and none", stages, cl.Ingress(0).Len(), want)
	}
	if !rsm.OwnWaiting(serve.LogStateOf(st)) {
		t.Error("the sealed batch is not waiting in the log for a slot")
	}
}
