package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"nuconsensus/internal/obs"
)

// chain emits a full 8-stage span chain for one request: client c seq q,
// accepted by node p, riding batch b decided into slot s at round rd.
// Stage walls are start, start+1000, start+2000, … so every stage latency
// is exactly 1000ns and e2e is 7000ns.
func chain(p int, c uint32, q uint64, b, s, rd int, start int64) []obs.SpanEvent {
	w := func(i int) int64 { return start + int64(i)*1000 }
	return []obs.SpanEvent{
		{Stage: obs.StageSend, P: p, Client: c, Seq: q, Slot: -1, Wall: w(0)},
		{Stage: obs.StageIngress, P: p, Client: c, Seq: q, Slot: -1, Wall: w(1)},
		{Stage: obs.StageSeal, P: p, Client: c, Seq: q, Slot: -1, N: 2, Wall: w(2)},
		{Stage: obs.StageInject, P: p, Client: c, Seq: q, Batch: b, Slot: -1, N: 2, Wall: w(3)},
		{Stage: obs.StageDecide, P: p, Batch: b, Slot: s, N: rd, Wall: w(4)},
		{Stage: obs.StageApply, P: p, Client: c, Seq: q, Batch: b, Slot: s, Wall: w(5)},
		{Stage: obs.StageReply, P: p, Client: c, Seq: q, Slot: -1, Wall: w(6)},
		{Stage: obs.StageRecv, P: p, Client: c, Seq: q, Slot: -1, Wall: w(7)},
	}
}

func TestReconstructJoinsChains(t *testing.T) {
	var evs []obs.SpanEvent
	evs = append(evs, chain(0, 1, 1, 65, 3, 1, 1000)...)
	evs = append(evs, chain(2, 7, 4, 130, 5, 2, 5000)...)
	// A remote replica's decide+apply for the first batch must not displace
	// the origin's view.
	evs = append(evs,
		obs.SpanEvent{Stage: obs.StageDecide, P: 1, Batch: 65, Slot: 3, N: 4, Wall: 9999},
		obs.SpanEvent{Stage: obs.StageApply, P: 1, Client: 1, Seq: 1, Batch: 65, Slot: 3, Wall: 10000},
	)

	reqs := reconstruct(evs)
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	r := reqs[0]
	if r.client != 1 || r.seq != 1 || r.origin != 0 || r.batch != 65 {
		t.Fatalf("request 0 = c%d#%d origin=%d batch=%d", r.client, r.seq, r.origin, r.batch)
	}
	if !r.complete() {
		t.Fatalf("request 0 incomplete: missing %s", r.missing())
	}
	if r.decide.P != 0 || r.decide.N != 1 {
		t.Fatalf("decide joined from wrong node: p=%d round=%d", r.decide.P, r.decide.N)
	}
	if r.apply.P != 0 {
		t.Fatalf("apply joined from wrong node: p=%d", r.apply.P)
	}
	// consensus spans seal→decide (covering inject), reply spans apply→recv
	// (covering the server's reply write), so those two are 2000ns each.
	want := [5]int64{1000, 1000, 2000, 1000, 2000}
	if got := r.stages(); got != want {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	if r.e2e() != 7000 {
		t.Fatalf("e2e = %dns, want 7000", r.e2e())
	}
	if err := checkComplete(reqs); err != nil {
		t.Fatalf("checkComplete: %v", err)
	}
}

func TestCheckFailsOnIncompleteAck(t *testing.T) {
	evs := chain(0, 1, 1, 65, 3, 1, 0)
	// Drop the decide: the request is still acked (recv present) but the
	// chain cannot telescope.
	var broken []obs.SpanEvent
	for _, ev := range evs {
		if ev.Stage != obs.StageDecide {
			broken = append(broken, ev)
		}
	}
	err := checkComplete(reconstruct(broken))
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("want incomplete-chain error, got %v", err)
	}

	// A request that was never acked (no recv) is not held to completeness.
	ok := evs[:4] // send..inject only, no recv
	if err := checkComplete(reconstruct(append(chain(0, 2, 1, 130, 4, 1, 0), ok...))); err != nil {
		t.Fatalf("unacked request should not fail the check: %v", err)
	}

	if err := checkComplete(nil); err == nil {
		t.Fatal("empty trace should fail the check")
	}
}

func TestPctNS(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := pctNS(sorted, 0.5); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := pctNS(sorted, 0.99); got != 100 {
		t.Fatalf("p99 = %d, want 100", got)
	}
	if got := pctNS(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 = %d, want 0", got)
	}
}

func TestReportBreakdown(t *testing.T) {
	var evs []obs.SpanEvent
	for i := 0; i < 10; i++ {
		evs = append(evs, chain(i%3, uint32(i+1), 1, 65+i, i, 1, int64(i)*100_000)...)
	}
	var buf bytes.Buffer
	report(&buf, reconstruct(evs), 3)
	out := buf.String()
	for _, want := range []string{
		"requests traced=10 acked=10 complete=10 (100.0% of acked)",
		"consensus", "1µs", "2µs", // stage latencies are 1µs or 2µs by construction
		"e2e", "7µs",
		"slowest requests:",
		"slot=", "round=1", "batch_n=2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n  c"); got != 3 {
		t.Fatalf("want 3 exemplar lines, got %d:\n%s", got, out)
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	var evs []obs.SpanEvent
	evs = append(evs, chain(0, 1, 1, 65, 3, 1, 1000)...)
	evs = append(evs, chain(1, 2, 1, 66, 4, 2, 2000)...)
	var buf bytes.Buffer
	if err := writeChrome(&buf, reconstruct(evs)); err != nil {
		t.Fatalf("writeChrome: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var slices, flows, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "s", "f":
			flows++
		case "M":
			meta++
		}
	}
	// 2 lanes × 5 stages; 4 arrows (s+f pairs) per lane; process_name + 2 thread_names.
	if slices != 10 || flows != 16 || meta != 3 {
		t.Fatalf("slices=%d flows=%d meta=%d, want 10/16/3", slices, flows, meta)
	}
	// Earliest send rebases to ts 0.
	if !strings.Contains(buf.String(), `"ts":0.000`) {
		t.Fatalf("expected rebased ts 0.000 in:\n%s", buf.String())
	}
}

var errFirst, errLater = errors.New("first write error"), errors.New("later write error")

// failAfter accepts n bytes, then fails: the write that crosses n returns
// errFirst, every later one errLater (and is counted).
type failAfter struct {
	n, got, late int
	failed       bool
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.late++
		return 0, errLater
	}
	if w.got+len(p) > w.n {
		k := w.n - w.got
		w.got, w.failed = w.n, true
		return k, errFirst
	}
	w.got += len(p)
	return len(p), nil
}

// TestWriteChromeLatchesFirstError: the export stops writing at the first
// failed write and returns that error, not a later one.
func TestWriteChromeLatchesFirstError(t *testing.T) {
	var evs []obs.SpanEvent
	for i := 0; i < 40; i++ { // tens of KiB of lanes: the failure lands mid-document
		evs = append(evs, chain(i%3, uint32(i+1), 1, 65+i, 3+i, 1, int64(i+1)*10000)...)
	}
	const limit = 5000
	w := &failAfter{n: limit}
	if err := writeChrome(w, reconstruct(evs)); !errors.Is(err, errFirst) {
		t.Errorf("writeChrome = %v, want %v", err, errFirst)
	}
	if w.got != limit || w.late != 0 {
		t.Errorf("writer got %d bytes and %d writes after the failure, want %d and 0", w.got, w.late, limit)
	}
}
