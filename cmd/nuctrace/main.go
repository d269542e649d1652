// Command nuctrace reconstructs per-request timelines from the span JSONL
// streams cmd/nucd and cmd/nucload emit (-trace): it joins the send,
// ingress, seal, inject, decide, apply, reply and recv stages of every
// traced write by its (client, seq) trace context — the batch-level decide
// span fanning out to member commands through the batch ID minted at
// inject — and reports a per-stage latency breakdown.
//
// The five reported stages telescope exactly to the end-to-end latency:
//
//	queue     send → ingress     client runtime + network + server read
//	batch     ingress → seal     waiting for the node's log to free a slot
//	consensus seal → decide      the A_nuc slot deciding the batch
//	apply     decide → apply     waiting for the body / session apply
//	reply     apply → recv       ack write-back + network + client read
//
// Output: per-stage p50/p99/max over all complete requests, the slowest
// exemplars with their slot and deciding round, and optionally a Chrome
// trace_event export (-chrome) with one lane per request and flow arrows
// between stages — open it in Perfetto. With -check, nuctrace exits
// non-zero unless every acked request has a complete span chain whose
// stage latencies sum to its end-to-end latency (the trace-smoke gate).
//
// Usage:
//
//	nuctrace [-top 5] [-check] [-chrome out.json] [-req 3:17] nucd.trace.jsonl nucload.trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"nuconsensus/internal/obs"
)

func main() {
	var (
		top    = flag.Int("top", 5, "how many slowest-request exemplars to print")
		check  = flag.Bool("check", false, "exit non-zero unless every acked request has a complete, telescoping span chain")
		chrome = flag.String("chrome", "", "write a Chrome trace_event export (one lane per request) to this file")
		reqSel = flag.String("req", "", "print one request's full event timeline (client:seq)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("nuctrace: need at least one span JSONL file")
	}
	var evs []obs.SpanEvent
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("nuctrace: %v", err)
		}
		part, err := obs.ReadSpans(f)
		f.Close()
		if err != nil {
			log.Fatalf("nuctrace: %s: %v", path, err)
		}
		evs = append(evs, part...)
	}

	reqs := reconstruct(evs)
	if *reqSel != "" {
		printTimeline(reqs, evs, *reqSel)
		return
	}
	report(os.Stdout, reqs, *top)
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			log.Fatalf("nuctrace: %v", err)
		}
		if err := writeChrome(f, reqs); err != nil {
			log.Fatalf("nuctrace: chrome export: %v", err)
		}
		fmt.Printf("chrome trace written to %s\n", *chrome)
	}
	if *check {
		if err := checkComplete(reqs); err != nil {
			log.Fatalf("nuctrace: CHECK FAILED: %v", err)
		}
		fmt.Printf("check ok: %d acked requests, all chains complete and telescoping\n", countAcked(reqs))
	}
}

// stageNames are the five telescoping stages, in causal order.
var stageNames = []string{"queue", "batch", "consensus", "apply", "reply"}

// request is one traced write's reconstructed chain. Stage events are nil
// until their span is seen; decide/apply are the ORIGIN node's view (the
// node that accepted the request and will ack it).
type request struct {
	client uint32
	seq    uint64
	origin int // node that accepted the request (P of ingress/seal/inject)
	batch  int // consensus batch the command rode in (from inject/apply)

	send, ingress, seal, inject *obs.SpanEvent
	decide, apply               *obs.SpanEvent
	reply, recv                 *obs.SpanEvent
}

// key identifies one traced command.
type key struct {
	client uint32
	seq    uint64
}

// reconstruct joins the span events into per-request chains. Batch-level
// decide events attach to every member request through the batch ID; when
// the same stage appears twice for a request (it should not), the first
// occurrence wins.
func reconstruct(evs []obs.SpanEvent) []*request {
	byKey := make(map[key]*request)
	var order []key
	get := func(c uint32, s uint64) *request {
		k := key{c, s}
		r, ok := byKey[k]
		if !ok {
			r = &request{client: c, seq: s, origin: -1, batch: -1}
			byKey[k] = r
			order = append(order, k)
		}
		return r
	}
	type decKey struct {
		p, batch int
	}
	decides := make(map[decKey]*obs.SpanEvent)
	for i := range evs {
		ev := &evs[i]
		switch ev.Stage {
		case obs.StageSend:
			r := get(ev.Client, ev.Seq)
			if r.send == nil {
				r.send = ev
			}
		case obs.StageIngress:
			r := get(ev.Client, ev.Seq)
			if r.ingress == nil {
				r.ingress = ev
				r.origin = ev.P
			}
		case obs.StageSeal:
			r := get(ev.Client, ev.Seq)
			if r.seal == nil {
				r.seal = ev
			}
		case obs.StageInject:
			r := get(ev.Client, ev.Seq)
			if r.inject == nil {
				r.inject = ev
				r.batch = ev.Batch
				if r.origin < 0 {
					r.origin = ev.P
				}
			}
		case obs.StageDecide:
			k := decKey{ev.P, ev.Batch}
			if decides[k] == nil {
				decides[k] = ev
			}
		case obs.StageApply:
			r := get(ev.Client, ev.Seq)
			// Keep the origin node's apply; any node's as a fallback.
			if r.apply == nil || (r.origin >= 0 && ev.P == r.origin && r.apply.P != r.origin) {
				r.apply = ev
			}
			if r.batch < 0 {
				r.batch = ev.Batch
			}
		case obs.StageReply:
			r := get(ev.Client, ev.Seq)
			if r.reply == nil {
				r.reply = ev
			}
		case obs.StageRecv:
			r := get(ev.Client, ev.Seq)
			if r.recv == nil {
				r.recv = ev
			}
		}
	}
	out := make([]*request, 0, len(order))
	for _, k := range order {
		r := byKey[k]
		if r.batch >= 0 && r.origin >= 0 {
			r.decide = decides[decKey{r.origin, r.batch}]
		}
		out = append(out, r)
	}
	return out
}

// acked reports whether the client saw the reply.
func (r *request) acked() bool { return r.recv != nil }

// complete reports whether every stage of the chain was traced.
func (r *request) complete() bool {
	return r.send != nil && r.ingress != nil && r.seal != nil && r.inject != nil &&
		r.decide != nil && r.apply != nil && r.reply != nil && r.recv != nil
}

// stages returns the five telescoping stage latencies in nanoseconds.
// Only meaningful on complete requests.
func (r *request) stages() [5]int64 {
	return [5]int64{
		r.ingress.Wall - r.send.Wall,
		r.seal.Wall - r.ingress.Wall,
		r.decide.Wall - r.seal.Wall,
		r.apply.Wall - r.decide.Wall,
		r.recv.Wall - r.apply.Wall,
	}
}

// e2e returns the end-to-end latency in nanoseconds.
func (r *request) e2e() int64 { return r.recv.Wall - r.send.Wall }

func countAcked(reqs []*request) int {
	n := 0
	for _, r := range reqs {
		if r.acked() {
			n++
		}
	}
	return n
}

// checkComplete is the trace-smoke gate: every acked request must have a
// complete chain, and the five stage latencies must sum exactly to the
// end-to-end latency (they telescope by construction, so a mismatch means
// the reconstruction joined the wrong events).
func checkComplete(reqs []*request) error {
	acked := 0
	for _, r := range reqs {
		if !r.acked() {
			continue
		}
		acked++
		if !r.complete() {
			return fmt.Errorf("request c%d#%d acked but chain incomplete: %s", r.client, r.seq, r.missing())
		}
		var sum int64
		for _, d := range r.stages() {
			sum += d
		}
		if sum != r.e2e() {
			return fmt.Errorf("request c%d#%d stages sum to %dns but e2e is %dns", r.client, r.seq, sum, r.e2e())
		}
	}
	if acked == 0 {
		return fmt.Errorf("no acked request in the trace")
	}
	return nil
}

// missing names the absent stages of an incomplete chain.
func (r *request) missing() string {
	var m []string
	for _, s := range []struct {
		name string
		ev   *obs.SpanEvent
	}{
		{"send", r.send}, {"ingress", r.ingress}, {"seal", r.seal}, {"inject", r.inject},
		{"decide", r.decide}, {"apply", r.apply}, {"reply", r.reply}, {"recv", r.recv},
	} {
		if s.ev == nil {
			m = append(m, s.name)
		}
	}
	if len(m) == 0 {
		return "nothing"
	}
	return strings.Join(m, ",")
}

// pctNS returns the nearest-rank q-percentile of a sorted nanosecond
// slice. Exact (offline), unlike the bucketed estimator live metrics use.
func pctNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// us renders nanoseconds as microseconds.
func us(ns int64) string { return fmt.Sprintf("%.0fµs", float64(ns)/1e3) }

// report prints the breakdown table and the slowest exemplars.
func report(w io.Writer, reqs []*request, top int) {
	var complete []*request
	for _, r := range reqs {
		if r.complete() {
			complete = append(complete, r)
		}
	}
	acked := countAcked(reqs)
	pct := 0.0
	if acked > 0 {
		pct = 100 * float64(len(complete)) / float64(acked)
	}
	fmt.Fprintf(w, "requests traced=%d acked=%d complete=%d (%.1f%% of acked)\n", len(reqs), acked, len(complete), pct)
	if len(complete) == 0 {
		return
	}

	cols := make([][]int64, len(stageNames)+1)
	for _, r := range complete {
		st := r.stages()
		for i, d := range st {
			cols[i] = append(cols[i], d)
		}
		cols[len(stageNames)] = append(cols[len(stageNames)], r.e2e())
	}
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "stage", "p50", "p99", "max")
	for i, name := range append(append([]string{}, stageNames...), "e2e") {
		c := cols[i]
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		fmt.Fprintf(w, "%-10s %12s %12s %12s\n", name, us(pctNS(c, 0.50)), us(pctNS(c, 0.99)), us(c[len(c)-1]))
	}

	sorted := append([]*request{}, complete...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].e2e() > sorted[b].e2e() })
	if top > len(sorted) {
		top = len(sorted)
	}
	if top > 0 {
		fmt.Fprintf(w, "slowest requests:\n")
	}
	for _, r := range sorted[:top] {
		st := r.stages()
		fmt.Fprintf(w, "  c%d#%d e2e=%s node=%d slot=%d round=%d batch_n=%d | queue=%s batch=%s consensus=%s apply=%s reply=%s\n",
			r.client, r.seq, us(r.e2e()), r.origin, r.decide.Slot, r.decide.N, r.seal.N,
			us(st[0]), us(st[1]), us(st[2]), us(st[3]), us(st[4]))
	}
}

// printTimeline dumps every span event of one request (all nodes' decide
// and apply views included), in wall order.
func printTimeline(reqs []*request, evs []obs.SpanEvent, sel string) {
	parts := strings.SplitN(sel, ":", 2)
	if len(parts) != 2 {
		log.Fatalf("nuctrace: -req wants client:seq, got %q", sel)
	}
	c64, err1 := strconv.ParseUint(parts[0], 10, 32)
	seq, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		log.Fatalf("nuctrace: -req wants client:seq, got %q", sel)
	}
	client := uint32(c64)
	var r *request
	for _, q := range reqs {
		if q.client == client && q.seq == seq {
			r = q
			break
		}
	}
	if r == nil {
		log.Fatalf("nuctrace: no spans for c%d#%d", client, seq)
	}
	var mine []obs.SpanEvent
	for _, ev := range evs {
		if (ev.Client == client && ev.Seq == seq) ||
			(ev.Stage == obs.StageDecide && r.batch >= 0 && ev.Batch == r.batch) {
			mine = append(mine, ev)
		}
	}
	sort.SliceStable(mine, func(a, b int) bool { return mine[a].Wall < mine[b].Wall })
	base := int64(0)
	if len(mine) > 0 {
		base = mine[0].Wall
	}
	fmt.Printf("c%d#%d: %d events (t=0 at first span)\n", client, seq, len(mine))
	for _, ev := range mine {
		extra := ""
		if ev.Batch != 0 {
			extra += fmt.Sprintf(" batch=%d", ev.Batch)
		}
		if ev.Slot >= 0 {
			extra += fmt.Sprintf(" slot=%d", ev.Slot)
		}
		if ev.N != 0 {
			extra += fmt.Sprintf(" n=%d", ev.N)
		}
		fmt.Printf("  t=%-12s p%d %-8s%s\n", us(ev.Wall-base), ev.P, ev.Stage, extra)
	}
}
