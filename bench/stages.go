package main

import (
	"fmt"
	"sort"

	"nuconsensus/internal/obs"
)

// stageNames are the six telescoping stages of a write, in causal order.
// They are cmd/nuctrace's five with seal->inject split out of "consensus",
// because that gap is where an open-loop backlog waits for the replica to
// drain its ingress queue.
//
//	queue        send   -> ingress   client runtime + loopback + server read
//	batch        ingress-> seal      waiting for the node's batch to fill/flush
//	ingress_wait seal   -> inject    waiting for the replica's next step to drain it
//	consensus    inject -> decide    the A_nuc slot deciding the batch
//	apply        decide -> apply     session dedup + machine apply
//	reply        apply  -> recv      ack write-back + loopback + client read
var stageNames = [6]string{"queue", "batch", "ingress_wait", "consensus", "apply", "reply"}

// clientStamp is the load generator's side of one write: the wall stamps
// of its send and of its reply's arrival.
type clientStamp struct {
	client   uint32
	seq      uint64
	sentWall int64
	recvWall int64
}

// stagedWrite is one traced write split into its six stages (ns).
type stagedWrite struct {
	client uint32
	seq    uint64
	stages [6]int64
	e2e    int64
}

// joinStages joins the server's span stream with the client's stamps on
// (client, seq); the batch-level decide span reaches its member commands
// through the batch ID their inject spans carry, at the node that accepted
// the request. It returns the staged writes and an error naming the first
// acked write whose chain is incomplete or whose stages do not sum to its
// end-to-end latency.
func joinStages(spans []obs.SpanEvent, acked []clientStamp) ([]stagedWrite, error) {
	type key struct {
		client uint32
		seq    uint64
	}
	type chain struct {
		ingress, seal, inject, apply *obs.SpanEvent
	}
	type decideKey struct{ p, batch int }
	chains := make(map[key]*chain)
	decides := make(map[decideKey]*obs.SpanEvent)
	at := func(ev *obs.SpanEvent) *chain {
		k := key{ev.Client, ev.Seq}
		c := chains[k]
		if c == nil {
			c = &chain{}
			chains[k] = c
		}
		return c
	}
	for i := range spans {
		ev := &spans[i]
		// The first span of a stage wins, as in cmd/nuctrace: a batch
		// decided in a second slot repeats decide, never the others.
		switch ev.Stage {
		case obs.StageIngress:
			if c := at(ev); c.ingress == nil {
				c.ingress = ev
			}
		case obs.StageSeal:
			if c := at(ev); c.seal == nil {
				c.seal = ev
			}
		case obs.StageInject:
			if c := at(ev); c.inject == nil {
				c.inject = ev
			}
		case obs.StageApply:
			// Every node applies every command; the origin's apply is the
			// one the ack waits for. Ingress precedes it in the stream.
			if c := at(ev); c.ingress != nil && ev.P == c.ingress.P && c.apply == nil {
				c.apply = ev
			}
		case obs.StageDecide:
			if k := (decideKey{ev.P, ev.Batch}); decides[k] == nil {
				decides[k] = ev
			}
		}
	}
	out := make([]stagedWrite, 0, len(acked))
	for _, a := range acked {
		c := chains[key{a.client, a.seq}]
		if c == nil || c.ingress == nil || c.seal == nil || c.inject == nil || c.apply == nil {
			return out, fmt.Errorf("write c%d#%d acked but its span chain is incomplete", a.client, a.seq)
		}
		dec := decides[decideKey{c.inject.P, c.inject.Batch}]
		if dec == nil {
			return out, fmt.Errorf("write c%d#%d: no decide span for batch %d at node %d", a.client, a.seq, c.inject.Batch, c.inject.P)
		}
		w := stagedWrite{client: a.client, seq: a.seq, e2e: a.recvWall - a.sentWall}
		marks := [7]int64{a.sentWall, c.ingress.Wall, c.seal.Wall, c.inject.Wall, dec.Wall, c.apply.Wall, a.recvWall}
		var sum int64
		for i := range w.stages {
			w.stages[i] = marks[i+1] - marks[i]
			sum += w.stages[i]
		}
		if sum != w.e2e {
			return out, fmt.Errorf("write c%d#%d: stages sum to %dns, end to end is %dns", a.client, a.seq, sum, w.e2e)
		}
		out = append(out, w)
	}
	return out, nil
}

// stageColumn returns stage i of every write, ascending, in the given unit
// (ns per unit).
func stageColumn(ws []stagedWrite, i int, unit float64) []float64 {
	col := make([]float64, len(ws))
	for j, w := range ws {
		col[j] = float64(w.stages[i]) / unit
	}
	sort.Float64s(col)
	return col
}

// tracedLayers fills the per-layer metrics a traced served pass yields.
func tracedLayers(p *servedPass, m metricSet) error {
	var acked []clientStamp
	ackedAll := 0 // warm-up included: the server traces those too
	for _, s := range p.sessions {
		s.mu.Lock()
		for i := range s.writes {
			if w := &s.writes[i]; w.acked() {
				ackedAll++
				if w.measured {
					acked = append(acked, clientStamp{s.client(), uint64(i + 1), w.sentWall, w.recvWall})
				}
			}
		}
		s.mu.Unlock()
	}
	ws, err := joinStages(p.spans, acked)
	if err != nil {
		return err
	}
	n := len(ws)
	col := func(stage string, unit float64) []float64 {
		for i, name := range stageNames {
			if name == stage {
				return stageColumn(ws, i, unit)
			}
		}
		panic("unknown stage " + stage)
	}
	q, b, iw, cs, ap, rp := col("queue", 1e3), col("batch", 1e3), col("ingress_wait", 1e3), col("consensus", 1e6), col("apply", 1e3), col("reply", 1e3)
	m.set("nucd.queue_p50_us", percentile(q, 0.50), n)
	m.set("nucd.queue_p95_us", tail(q, 0.95), n)
	m.set("nucd.batch_p50_us", percentile(b, 0.50), n)
	m.set("nucd.batch_p95_us", tail(b, 0.95), n)
	m.set("nucd.reply_p50_us", percentile(rp, 0.50), n)
	m.set("serve.ingress_wait_p50_us", percentile(iw, 0.50), n)
	m.set("serve.ingress_wait_p95_us", tail(iw, 0.95), n)
	m.set("serve.apply_p50_us", percentile(ap, 0.50), n)
	m.set("consensus.stage_p50_ms", percentile(cs, 0.50), n)
	m.set("consensus.stage_p95_ms", tail(cs, 0.95), n)

	// Rounds per decided value slot, over every node's decide spans.
	var rounds, multi, slots float64
	for i := range p.spans {
		if ev := &p.spans[i]; ev.Stage == obs.StageDecide {
			slots++
			rounds += float64(ev.N)
			if ev.N > 1 {
				multi++
			}
		}
	}
	if slots > 0 {
		m.set("consensus.rounds_per_slot", rounds/slots, int(slots))
		m.set("consensus.multi_round_frac", multi/slots, int(slots))
	}
	if ackedAll > 0 {
		m.set("obs.spans_per_write", float64(len(p.spans))/float64(ackedAll), ackedAll)
	}
	return nil
}
