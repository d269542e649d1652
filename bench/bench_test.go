package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"nuconsensus/internal/obs"
	"nuconsensus/internal/serve"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := scheduleBytes(openSchedule(7, 100, 300, 3*time.Second))
	b := scheduleBytes(openSchedule(7, 100, 300, 3*time.Second))
	c := scheduleBytes(openSchedule(8, 100, 300, 3*time.Second))
	if !bytes.Equal(a, b) {
		t.Error("same seed gave two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	k1, k2, k3 := newKeyStream(7, 0), newKeyStream(7, 0), newKeyStream(8, 0)
	same, differ := true, false
	for i := 0; i < 64; i++ {
		x, y, z := k1.next(), k2.next(), k3.next()
		same = same && x == y
		differ = differ || x != z
		if x >= keysPerConn {
			t.Fatalf("connection 0 drew key %d outside its partition", x)
		}
	}
	if !same || !differ {
		t.Errorf("closed-loop key stream: same seed equal=%v, different seed differs=%v", same, differ)
	}
}

func TestOpenScheduleShape(t *testing.T) {
	reqs := openSchedule(1, 100, 300, 2*time.Second)
	var n [3]int
	for i, r := range reqs {
		n[r.Kind]++
		if i > 0 && r.Due < reqs[i-1].Due {
			t.Fatal("schedule not in due order")
		}
		if r.Key/keysPerConn != uint64(r.Conn) {
			t.Fatalf("request %d on conn %d uses key %d of another partition", i, r.Conn, r.Key)
		}
	}
	if n[kindWrite] != 200 || n[kindRead]+n[kindLin] < 595 || abs(n[kindRead]-n[kindLin]) > 2 {
		t.Errorf("2 s at 100 w/s + 300 r/s gave %d writes, %d plain, %d lin", n[kindWrite], n[kindRead], n[kindLin])
	}
	if reqs[len(reqs)-1].Kind != kindWrite {
		t.Error("schedule must end on a write")
	}
	if countWrites(reqs) != n[kindWrite] {
		t.Error("countWrites disagrees")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 0.99}, {999, 0.99, 0.95}, {200, 0.95, 0.95}, {199, 0.95, 0.90},
		{100, 0.95, 0.90}, {40, 0.95, 0.75}, {39, 0.95, 0.50}, {5, 0.99, 0.50}, {1000, 0.50, 0.50},
	} {
		if got := supportedQ(tc.n, tc.q); got != tc.want {
			t.Errorf("supportedQ(%d, %.2f) = %.2f, want %.2f", tc.n, tc.q, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 0.95); got != 90 {
		t.Errorf("tail of 1..100 at p95 = %v, want the p90 (90): only 5 samples lie beyond p95", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("median of 1..100 = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestMidmean(t *testing.T) {
	// The middle half of 1..8 is 3..6; one wild sample does not move it.
	if got := midmean([]float64{8, 1, 2, 3, 4, 5, 6, 7}); got != 4.5 {
		t.Errorf("midmean(1..8) = %v, want 4.5", got)
	}
	if got := midmean([]float64{1000, 1, 2, 3, 4, 5, 6, 7}); got != 4.5 {
		t.Errorf("midmean with an outlier = %v, want 4.5", got)
	}
	if got := midmean([]float64{2, 4, 9}); got != 5 {
		t.Errorf("midmean of three keeps all three: %v, want 5", got)
	}
	if midmean(nil) != 0 {
		t.Error("midmean of nothing must be 0")
	}
}

// cannedSpans is the server's stream for two writes that rode one batch
// (id 193) accepted by node 1 and decided in slot 7, round 4, plus node 0's
// view of the same slot, which the join must ignore.
func cannedSpans(t *testing.T) []obs.SpanEvent {
	t.Helper()
	var b strings.Builder
	for _, ev := range []obs.SpanEvent{
		{Stage: obs.StageIngress, P: 1, Client: 2, Seq: 5, Slot: -1, T0: 1000, Wall: 1100},
		{Stage: obs.StageIngress, P: 1, Client: 2, Seq: 6, Slot: -1, T0: 1050, Wall: 1150},
		{Stage: obs.StageSeal, P: 1, Client: 2, Seq: 5, Slot: -1, N: 2, Wall: 3100},
		{Stage: obs.StageSeal, P: 1, Client: 2, Seq: 6, Slot: -1, N: 2, Wall: 3100},
		{Stage: obs.StageInject, P: 1, Client: 2, Seq: 5, Batch: 193, Slot: -1, N: 2, Wall: 3400},
		{Stage: obs.StageInject, P: 1, Client: 2, Seq: 6, Batch: 193, Slot: -1, N: 2, Wall: 3400},
		{Stage: obs.StageDecide, P: 0, Batch: 193, Slot: 7, N: 4, Wall: 9000},
		{Stage: obs.StageApply, P: 0, Client: 2, Seq: 5, Batch: 193, Slot: 7, Wall: 9010},
		{Stage: obs.StageDecide, P: 1, Batch: 193, Slot: 7, N: 4, Wall: 9500},
		{Stage: obs.StageApply, P: 1, Client: 2, Seq: 5, Batch: 193, Slot: 7, Wall: 9520},
		{Stage: obs.StageApply, P: 1, Client: 2, Seq: 6, Batch: 193, Slot: 7, Wall: 9530},
		{Stage: obs.StageReply, P: 1, Client: 2, Seq: 5, Slot: -1, Wall: 9540},
		{Stage: obs.StageDecide, P: 1, Batch: 193, Slot: 9, N: 5, Wall: 20000}, // decided again: first wins
	} {
		b.WriteString(obs.SpanLine(ev))
	}
	spans, err := obs.ReadSpans(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestSixStagesTelescope(t *testing.T) {
	spans := cannedSpans(t)
	ws, err := joinStages(spans, []clientStamp{{2, 5, 1000, 9700}, {2, 6, 1050, 9800}})
	if err != nil {
		t.Fatal(err)
	}
	want := [6]int64{100, 2000, 300, 6100, 20, 180} // queue batch ingress_wait consensus apply reply
	if ws[0].stages != want || ws[0].e2e != 8700 {
		t.Errorf("write 2#5 staged as %v e2e=%d, want %v e2e=8700", ws[0].stages, ws[0].e2e, want)
	}
	for _, w := range ws {
		var sum int64
		for _, d := range w.stages {
			sum += d
		}
		if sum != w.e2e {
			t.Errorf("write %d#%d: stages sum to %d, e2e %d", w.client, w.seq, sum, w.e2e)
		}
	}
	if _, err := joinStages(spans, []clientStamp{{2, 7, 1, 2}}); err == nil {
		t.Error("an acked write with no spans must be reported")
	}
	if _, err := joinStages(spans[:8], []clientStamp{{2, 5, 1000, 9700}}); err == nil {
		t.Error("a chain cut before the origin's decide must be reported")
	}
}

func TestReadIndexStalenessRule(t *testing.T) {
	ms := time.Millisecond
	s := &session{id: 0}
	w := func(sent, recv time.Duration) {
		seq := uint64(len(s.writes) + 1)
		s.writes = append(s.writes, op{kind: kindWrite, key: 9, val: uniqueVal(0, seq), sent: sent, recv: recv, replies: 1})
	}
	w(0, 10*ms)     // #1
	w(20*ms, 30*ms) // #2, sent after #1 was acked: #1 applied first
	w(25*ms, 40*ms) // #3, overlaps #2: either order
	writes := []*op{&s.writes[0], &s.writes[1], &s.writes[2]}
	read := func(kind byte, sent, recv time.Duration, val int64, status byte) string {
		return checkRead(s, &op{kind: kind, key: 9, val: val, status: status, sent: sent, recv: recv, replies: 1}, writes)
	}
	if why := read(kindLin, 35*ms, 36*ms, uniqueVal(0, 1), serve.StatusOK); why == "" {
		t.Error("read-index read sent after #2's ack returned #1: stale, must fail")
	}
	if why := read(kindRead, 35*ms, 36*ms, uniqueVal(0, 1), serve.StatusOK); why != "" {
		t.Errorf("a plain read may lag: %s", why)
	}
	if why := read(kindLin, 45*ms, 46*ms, uniqueVal(0, 2), serve.StatusOK); why != "" {
		t.Errorf("#2 and #3 overlapped, so #2 may be the later apply: %s", why)
	}
	if why := read(kindLin, 45*ms, 46*ms, 0, serve.StatusMissing); why == "" {
		t.Error("missing after an acked write must fail")
	}
	if why := read(kindRead, 5*ms, 6*ms, uniqueVal(0, 2), serve.StatusOK); why == "" {
		t.Error("a value from a write not yet sent must fail")
	}
	if why := read(kindRead, 5*ms, 6*ms, uniqueVal(1, 1), serve.StatusOK); why == "" {
		t.Error("a value this session never wrote must fail")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower"}
	higher := metricDef{Name: "y", Better: "higher"}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		d     metricDef
		bound float64
		a, b  []float64
		want  string
	}{
		{lower, 0.10, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lower, 0.10, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, 0.10, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, 0.10, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{lower, 0.10, steady, []float64{80, 130, 100, 90, 140}, "unresolved"},
		{metricDef{Better: "lower", Exact: true}, 0, []float64{225}, []float64{225}, "ok"},
		{metricDef{Better: "lower", Exact: true}, 0, []float64{225}, []float64{224}, "worse"},
	} {
		if _, _, got := judge(tc.d, tc.bound, false, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s %v -> %v) = %s, want %s", tc.d.Better, tc.a, tc.b, got, tc.want)
		}
	}
	if _, _, got := judge(higher, 0.01, true, []float64{0.995}, []float64{0.98}); got != "worse" {
		t.Errorf("absolute bound: 0.995 -> 0.98 with 0.01 abs = %s, want worse", got)
	}
	if _, _, got := judge(higher, 0.01, true, []float64{0.99, 0.95, 0.97}, []float64{0.90, 0.91, 0.92}); got != "unresolved" {
		t.Errorf("absolute bound with a 0.04 range on the base = %s, want unresolved", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// update rewrites BENCHMARK.json from the catalog: go test -run Catalog -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	if *update {
		var bj benchmarkJSON
		bj.Command, bj.Paths, bj.RunSeconds = []string{"bash", "bench/run.sh"}, []string{"bench"}, 24
		for _, w := range workloads {
			bj.Workloads = append(bj.Workloads, jsonWorkload(w))
		}
		for _, d := range endToEnd {
			bj.EndToEnd = append(bj.EndToEnd, jsonEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
		}
		for _, d := range perLayer {
			bj.PerLayer = append(bj.PerLayer, jsonPerLayer{d.Name, d.Unit, d.Better})
		}
		b, err := json.MarshalIndent(bj, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end_to_end/per_layer, the catalog %d/%d/%d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("catalog exceeds the schema's 8 / 16 / 128 limits")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not fit the schema", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalog %q (or their why differs)", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, w := range allWorkloads() {
		_, served := servedSpecs[w.Name]
		_, sim := simSpecs[w.Name]
		if served == sim {
			t.Errorf("workload %s must be exactly one of served and sim", w.Name)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.Name)
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the catalog %+v", i, j, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound < 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end_to_end %s: unit/bound/better out of range", d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	for i, d := range perLayer {
		name(d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the catalog %s/%s/%s", i, j, d.Name, d.Unit, d.Better)
		}
		if !unitRE.MatchString(d.Unit) || d.Layer == "" || d.Source == "" || d.Moves == "" {
			t.Errorf("per_layer %s: needs a valid unit, a layer, a source and what it should move", d.Name)
		}
	}
	for n := range clientBounds {
		if !seen[n] {
			t.Errorf("clientBounds names unknown metric %q", n)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths/run_seconds: %v / %d", bj.Paths, bj.RunSeconds)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above 64 KiB", len(raw))
	}
}

// TestEveryMetricIsEmitted scans the sources for the names handed to
// metricSet.set: each must be in the catalog, and each catalog name must be
// set somewhere.
func TestEveryMetricIsEmitted(t *testing.T) {
	catalog := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		catalog[d.Name] = false
	}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	setRE := regexp.MustCompile(`\.set\("([^"]+)"`)
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range setRE.FindAllStringSubmatch(string(src), -1) {
			if _, ok := catalog[m[1]]; !ok {
				t.Errorf("%s emits %q, which the catalog does not list", f.Name(), m[1])
			}
			catalog[m[1]] = true
		}
	}
	// servedClientLayers builds these four from "read"/"lin" + suffix.
	for _, n := range []string{"read_p50_ms", "read_p95_ms", "lin_p50_ms", "lin_p95_ms"} {
		catalog[n] = true
	}
	for n, emitted := range catalog {
		if !emitted {
			t.Errorf("catalog metric %q is never emitted", n)
		}
	}
}
