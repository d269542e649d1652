package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// payload is a minimal model.Payload for scripted runs.
type payload struct{ kind string }

func (p payload) Kind() string   { return p.kind }
func (p payload) String() string { return p.kind }

// roundState exposes the optional Rounder/Decider introspection the bus
// derives EpochChange/QuorumFormed/Decide events from.
type roundState struct {
	round   int
	decided bool
	val     int
}

func (s roundState) CloneState() model.State { return s }
func (s roundState) Round() int              { return s.round }
func (s roundState) Decision() (int, bool)   { return s.val, s.decided }

func msg(from, to model.ProcessID, seq uint64, kind string) *model.Message {
	return &model.Message{From: from, To: to, Seq: seq, Payload: payload{kind}}
}

// step is one scripted atomic step fed to Bus.OnStep.
type step struct {
	t    model.Time
	p    model.ProcessID
	recv *model.Message
	fd   model.FDValue
	sent []*model.Message
	st   model.State
}

// script is the shared fixture: three processes exchanging messages with a
// genuinely concurrent λ-step (p2 at t=2 is causally unrelated to p0's
// first step).
func script() []step {
	m01 := msg(0, 1, 1, "EST")
	m02 := msg(0, 2, 2, "EST")
	m12 := msg(1, 2, 1, "ACK")
	return []step{
		{t: 1, p: 0, sent: []*model.Message{m01, m02}},
		{t: 2, p: 2}, // λ-step, concurrent with everything of p0/p1
		{t: 3, p: 1, recv: m01, sent: []*model.Message{m12}},
		{t: 4, p: 2, recv: m12},
		{t: 5, p: 2, recv: m02},
		{t: 6, p: 0},
	}
}

// runScript replays steps through a fresh bus into the given sinks.
func runScript(t *testing.T, steps []step, reg *obs.Registry, sinks ...obs.Sink) {
	t.Helper()
	bus := obs.NewBus(nil, reg, sinks...)
	for _, s := range steps {
		var taken []*model.Message
		if s.recv != nil {
			taken = []*model.Message{s.recv}
		}
		bus.OnStep(s.t, s.p, taken, s.fd, s.sent, s.st)
	}
	if err := bus.Close(); err != nil {
		t.Fatalf("bus.Close: %v", err)
	}
}

// happensBefore computes the §2.4 precedence relation over the script's
// steps independently of the bus: the transitive closure of program order
// (same process, earlier step) and send-before-receive (a step receiving a
// message is preceded by the step that sent it, matched by the message
// identity (From, Seq)).
func happensBefore(steps []step) [][]bool {
	n := len(steps)
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	sender := make(map[[2]uint64]int) // (from, seq) -> sending step index
	for i, s := range steps {
		for _, m := range s.sent {
			sender[[2]uint64{uint64(m.From), m.Seq}] = i
		}
	}
	for j, s := range steps {
		for i := range steps[:j] {
			if steps[i].p == s.p {
				hb[i][j] = true // program order
			}
		}
		if s.recv != nil {
			if i, ok := sender[[2]uint64{uint64(s.recv.From), s.recv.Seq}]; ok {
				hb[i][j] = true // send-before-receive
			}
		}
	}
	for k := 0; k < n; k++ { // transitive closure
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if hb[i][k] && hb[k][j] {
					hb[i][j] = true
				}
			}
		}
	}
	return hb
}

// TestLamportRespectsHappensBefore is the causal-annotation acceptance
// test: the bus's Lamport stamps must refine the independently computed
// §2.4 precedence — e ≺ e' implies L(e) < L(e') — and every Deliver must
// carry a strictly larger stamp than its matching Send.
func TestLamportRespectsHappensBefore(t *testing.T) {
	steps := script()
	all := obs.NewCollector(obs.AllKinds()...)
	runScript(t, steps, nil, all)

	// The Step events appear in script order on the deterministic path.
	var stepL []uint64
	sends := make(map[[2]uint64]uint64) // (from, seq) -> send Lamport
	for _, ev := range all.Events() {
		switch ev.Kind {
		case obs.KindStep:
			stepL = append(stepL, ev.L)
		case obs.KindSend:
			sends[[2]uint64{uint64(ev.From), ev.Seq}] = ev.L
		case obs.KindDeliver:
			sL, ok := sends[[2]uint64{uint64(ev.From), ev.Seq}]
			if !ok {
				t.Fatalf("deliver of (%d,%d) with no prior send event", ev.From, ev.Seq)
			}
			if ev.L <= sL {
				t.Errorf("deliver of (%d,%d) has L=%d, not after its send L=%d", ev.From, ev.Seq, ev.L, sL)
			}
		}
	}
	if len(stepL) != len(steps) {
		t.Fatalf("got %d step events, want %d", len(stepL), len(steps))
	}

	hb := happensBefore(steps)
	for i := range steps {
		for j := range steps {
			if hb[i][j] && stepL[i] >= stepL[j] {
				t.Errorf("step %d ≺ step %d but L=%d ≥ L=%d: Lamport order does not refine §2.4 precedence",
					i, j, stepL[i], stepL[j])
			}
		}
	}
	// Sanity: the fixture really contains a concurrent pair (no order
	// either way), so the test is not vacuously about a total order.
	if hb[0][1] || hb[1][0] {
		t.Fatal("fixture lost its concurrent pair (steps 0 and 1)")
	}
}

// TestBusDerivedEvents: round advances become EpochChange (plus
// QuorumFormed when the module output a quorum), decisions are emitted
// once per process, crashes are emitted, and the attached registry sees
// the commutative counters.
func TestBusDerivedEvents(t *testing.T) {
	reg := obs.NewRegistry()
	all := obs.NewCollector(obs.AllKinds()...)
	bus := obs.NewBus(nil, reg, all)

	q := fd.QuorumValue{Quorum: model.FullSet(3)}
	bus.OnStep(1, 0, nil, q, nil, roundState{round: 1})
	bus.OnStep(2, 0, nil, nil, nil, roundState{round: 1, decided: true, val: 7})
	bus.OnStep(3, 0, nil, nil, nil, roundState{round: 1, decided: true, val: 7}) // latch: no 2nd decide
	bus.OnCrash(4, 1)

	var kinds []string
	for _, ev := range all.Events() {
		kinds = append(kinds, ev.Kind.String())
	}
	want := []string{"fdquery", "step", "epoch", "quorum", "step", "decide", "step", "crash"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for _, ev := range all.Events() {
		switch ev.Kind {
		case obs.KindEpochChange, obs.KindQuorumFormed:
			if ev.Value != 1 {
				t.Errorf("%s carries round %d, want 1", ev.Kind, ev.Value)
			}
		case obs.KindDecide:
			if ev.Value != 7 {
				t.Errorf("decide carries value %d, want 7", ev.Value)
			}
		}
	}
	if got := reg.Counter("bus.steps").Value(); got != 3 {
		t.Errorf("bus.steps = %d, want 3", got)
	}
	if got := reg.Counter("bus.crashes").Value(); got != 1 {
		t.Errorf("bus.crashes = %d, want 1", got)
	}

	// A nil bus is a safe no-op on every method.
	var nb *obs.Bus
	nb.OnInit(nil)
	nb.OnStep(1, 0, nil, nil, nil, nil)
	nb.OnCrash(1, 0)
	nb.SetClock(obs.Wall{})
	if err := nb.Close(); err != nil {
		t.Errorf("nil bus Close = %v", err)
	}
}

// decidedState is a roundState that also records the round whose test
// decided, as A_nuc does.
type decidedState struct {
	roundState
	k int
}

func (s decidedState) CloneState() model.State   { return s }
func (s decidedState) DecidedRound() (int, bool) { return s.k, s.decided }

// TestBusRoundsToDecide: a process that decides in round 1 and starts
// round 2 in the same step is observed as deciding in round 1; a state that
// records no deciding round falls back to the round it is in.
func TestBusRoundsToDecide(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   model.State
		want int64
	}{
		{"deciding round recorded", decidedState{roundState{round: 2, decided: true, val: 7}, 1}, 1},
		{"current round only", roundState{round: 2, decided: true, val: 7}, 2},
	} {
		reg := obs.NewRegistry()
		bus := obs.NewBus(nil, reg)
		bus.OnStep(1, 0, nil, nil, nil, roundState{round: 1})
		bus.OnStep(2, 0, nil, nil, nil, tc.st)
		if h := reg.Histogram("consensus.rounds_to_decide", obs.DefaultBuckets); h.Count() != 1 || h.Sum() != tc.want {
			t.Errorf("%s: rounds_to_decide saw %d decisions summing to %d, want one in round %d", tc.name, h.Count(), h.Sum(), tc.want)
		}
	}
}

// outState emulates a detector (§2.9): its output variable is a leader
// once set, nil before.
type outState struct{ out model.FDValue }

func (s outState) CloneState() model.State       { return s }
func (s outState) EmulatedOutput() model.FDValue { return s.out }

// TestBusEmulatedOutputs: states that emulate a detector get one output
// event per step, after the step's other events, plus one at t = 0 from
// OnInit; nil outputs and states that emulate nothing get none; the event
// has a JSONL and a Chrome rendering.
func TestBusEmulatedOutputs(t *testing.T) {
	var jsonl, chrome bytes.Buffer
	col := obs.NewCollector(obs.KindFDOutput)
	all := obs.NewCollector(obs.AllKinds()...)
	bus := obs.NewBus(nil, nil, col, all, obs.NewJSONL(&jsonl), obs.NewChromeTrace(&chrome))

	l0, l1 := fd.LeaderValue{Leader: 0}, fd.LeaderValue{Leader: 1}
	bus.OnInit([]model.State{outState{out: l0}, outState{}, roundState{}})
	bus.OnStep(1, 1, nil, nil, nil, outState{})        // still nil: no event
	bus.OnStep(2, 1, nil, nil, nil, outState{out: l1}) // first value of p1
	bus.OnStep(3, 0, nil, nil, nil, outState{out: l0}) // unchanged values are still emitted
	bus.OnStep(4, 2, nil, nil, nil, roundState{})
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}

	type pt struct {
		p model.ProcessID
		t model.Time
		v model.FDValue
	}
	var got []pt
	for _, ev := range col.Events() {
		got = append(got, pt{ev.P, ev.T, ev.FD})
	}
	want := []pt{{0, 0, l0}, {1, 2, l1}, {0, 3, l0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output events = %v, want %v", got, want)
	}
	var kinds []string
	for _, ev := range all.Events() {
		kinds = append(kinds, ev.Kind.String())
	}
	if want := []string{"output", "step", "step", "output", "step", "output", "step"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
	if line := `{"k":"output","t":2,"p":1,"l":2,"fd":"` + l1.String() + `"}` + "\n"; !bytes.Contains(jsonl.Bytes(), []byte(line)) {
		t.Errorf("JSONL log lacks %q:\n%s", line, jsonl.Bytes())
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	outputs := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "output" {
			outputs++
		}
	}
	if outputs != 3 {
		t.Errorf("chrome trace has %d output instants, want 3", outputs)
	}
}

// TestCollectorKeepsOnlyItsKinds: a collector retains exactly the events of
// its kinds, in emission order, and nothing of a run's other events — so
// "keep the samples" is a sink choice, and no sink keeps nothing.
func TestCollectorKeepsOnlyItsKinds(t *testing.T) {
	ring := obs.NewCollector(obs.AllKinds()...)
	col := obs.NewCollector(obs.KindSend, obs.KindDeliver)
	none := obs.NewCollector()
	runScript(t, script(), nil, ring, col, none)
	var want []obs.Event
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindSend || ev.Kind == obs.KindDeliver {
			want = append(want, ev)
		}
	}
	if len(want) != 6 || !reflect.DeepEqual(col.Events(), want) {
		t.Errorf("collector kept %v, want the ring's 3 sends and 3 delivers %v", col.Events(), want)
	}
	if len(none.Events()) != 0 {
		t.Errorf("a collector of no kinds kept %d events", len(none.Events()))
	}
}

// TestJSONLByteIdentical: the same scripted run serializes to the same
// bytes, whether through the JSONL sink directly or by replaying the
// collected events through a JSONL sink's Emit — the engine's path, and
// the property CI's -parallel diff relies on.
func TestJSONLByteIdentical(t *testing.T) {
	var direct1, direct2, replayed bytes.Buffer
	all := obs.NewCollector(obs.AllKinds()...)
	runScript(t, script(), nil, obs.NewJSONL(&direct1), all)
	runScript(t, script(), nil, obs.NewJSONL(&direct2))
	replay := obs.NewJSONL(&replayed)
	for _, ev := range all.Events() {
		replay.Emit(ev)
	}
	if err := replay.Close(); err != nil {
		t.Fatalf("replay Close: %v", err)
	}

	if !bytes.Equal(direct1.Bytes(), direct2.Bytes()) {
		t.Error("two identical runs produced different JSONL bytes")
	}
	if !bytes.Equal(direct1.Bytes(), replayed.Bytes()) {
		t.Error("collector replay produced different JSONL bytes than the direct sink")
	}
	// Every line must be valid JSON with the wall field absent under the
	// Logical clock.
	for _, line := range bytes.Split(bytes.TrimSpace(direct1.Bytes()), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if _, ok := m["wall"]; ok {
			t.Errorf("line %q carries a wall stamp under the Logical clock", line)
		}
	}
}

// TestChromeTraceFlows: the Chrome export is valid JSON, every flow-start
// ("s", a Send) has exactly one matching flow-finish ("f", the Deliver)
// under the same id, and each arrow points forward in the independently
// computed precedence (the finish's Lamport annotation exceeds the
// start's).
func TestChromeTraceFlows(t *testing.T) {
	var buf bytes.Buffer
	runScript(t, script(), nil, obs.NewChromeTrace(&buf))

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			ID   uint64         `json:"id"`
			Ts   int64          `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}

	starts := make(map[uint64]float64) // flow id -> send lamport
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "s" {
			if _, dup := starts[ev.ID]; dup {
				t.Errorf("duplicate flow start id %d", ev.ID)
			}
			starts[ev.ID] = ev.Args["lamport"].(float64)
		}
	}
	finishes := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "f" {
			continue
		}
		finishes++
		sL, ok := starts[ev.ID]
		if !ok {
			t.Errorf("flow finish id %d has no matching start", ev.ID)
			continue
		}
		if fL := ev.Args["lamport"].(float64); fL <= sL {
			t.Errorf("flow id %d: deliver lamport %v not after send lamport %v", ev.ID, fL, sL)
		}
	}
	if finishes != 3 {
		t.Errorf("got %d flow finishes, want 3 (the script delivers 3 messages)", finishes)
	}
	if len(starts) != 3 {
		t.Errorf("got %d flow starts, want 3 (the script sends 3 messages)", len(starts))
	}
}

// TestRegistrySnapshotDeterministic: snapshots are sorted by name and the
// JSONL dump depends only on the final metric values, not on creation or
// update order — the property that makes -metrics dumps comparable across
// -parallel values.
func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func(reverse bool) *obs.Registry {
		reg := obs.NewRegistry()
		ops := []func(){
			func() { reg.Counter("b.count").Add(3) },
			func() { reg.Gauge("a.depth").Max(7) },
			func() { reg.Histogram("c.hist", obs.DefaultBuckets).Observe(42) },
			func() { reg.Counter("b.count").Add(2) },
			func() { reg.Histogram("c.hist", obs.DefaultBuckets).Observe(1) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return reg
	}
	var fwd, rev bytes.Buffer
	if err := build(false).WriteJSONL(&fwd); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteJSONL(&rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
		t.Errorf("metric dumps differ by update order:\n%s\nvs\n%s", fwd.Bytes(), rev.Bytes())
	}

	snap := build(false).Snapshot()
	var names []string
	for _, m := range snap {
		names = append(names, m.Name)
	}
	want := []string{"a.depth", "b.count", "c.hist"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("snapshot order %v, want sorted %v", names, want)
	}

	// The JSONL file dump (every host's -metrics) is the same snapshot, one
	// object per line; the counter line pins the byte format its readers
	// parse.
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := build(false).WriteJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(dump, []byte("\n")), []byte("\n"))
	if len(lines) != len(snap) {
		t.Fatalf("%d JSONL lines for %d instruments:\n%s", len(lines), len(snap), dump)
	}
	for i, line := range lines {
		var got obs.MetricSnapshot
		if err := json.Unmarshal(line, &got); err != nil || !reflect.DeepEqual(got, snap[i]) {
			t.Errorf("line %d = %s (err %v), want %+v", i, line, err, snap[i])
		}
	}
	if want := `{"name":"b.count","kind":"counter","value":5}`; string(lines[1]) != want {
		t.Errorf("counter line %s, want %s", lines[1], want)
	}
}

// TestRegistryKindMismatchPanics: re-registering a name as a different
// metric kind is a programming error and must fail loudly.
func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("Gauge(\"x\") after Counter(\"x\") did not panic")
		}
	}()
	reg.Gauge("x")
}

// TestNilRegistryRecordsNothing: a nil *Registry is how a run is left
// unmetered. It hands out nil instruments, every writer on them is a
// no-op, and a bus or tracer built on it works without counting.
func TestNilRegistryRecordsNothing(t *testing.T) {
	var reg *obs.Registry
	c, g, h := reg.Counter("c"), reg.Gauge("g"), reg.Histogram("h", obs.DefaultBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out %v, %v, %v; want nil instruments", c, g, h)
	}
	c.Add(1)
	g.Set(2)
	g.Max(3)
	h.Observe(4)

	bus := obs.NewBus(nil, reg)
	bus.OnStep(1, 0, nil, nil, []*model.Message{{From: 0, To: 1, Seq: 1, Payload: payload{"P"}}}, nil)
	bus.OnCrash(2, 0)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, nil, reg)
	tr.Span(obs.SpanEvent{Stage: obs.StageIngress})
	if err := tr.Flush(); err != nil || tr.Spans() != 1 || buf.Len() == 0 {
		t.Errorf("tracer on a nil registry wrote %d spans, %d bytes (err %v), want 1 span", tr.Spans(), buf.Len(), err)
	}
}

// TestJoinedTakeAndHeldSends: a step that took several messages emits one
// Deliver per message, all at one Lamport stamp above every one of their
// sends; sends let out outside a step (OnSend) are stamped after the
// sender's last step, so a step that takes them is stamped after them.
func TestJoinedTakeAndHeldSends(t *testing.T) {
	all := obs.NewCollector(obs.KindDeliver, obs.KindSend)
	bus := obs.NewBus(nil, nil, all)
	a, b := msg(0, 1, 1, "A"), msg(0, 1, 2, "B")
	bus.OnStep(1, 0, nil, nil, []*model.Message{a}, nil) // p0 at L1
	bus.OnStep(2, 0, nil, nil, nil, nil)                 // L2
	bus.OnStep(3, 0, nil, nil, nil, nil)                 // L3
	bus.OnSend(4, 0, []*model.Message{b})                // L4, outside a step
	bus.OnStep(5, 1, []*model.Message{a, b}, nil, nil, nil)
	var got []string
	for _, ev := range all.Events() {
		got = append(got, fmt.Sprintf("%v %s#%d L%d", ev.Kind, ev.Payload, ev.Seq, ev.L))
	}
	want := []string{"send A#1 L1", "send B#2 L4", "deliver A#1 L5", "deliver B#2 L5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events %q, want %q", got, want)
	}
}

// TestSinkFanoutConcurrent drives one bus from many goroutines (as the
// concurrent substrates do) under -race: every sink must observe the same
// event sequence, and the commutative counters must balance exactly.
func TestSinkFanoutConcurrent(t *testing.T) {
	const procs, per = 8, 200
	reg := obs.NewRegistry()
	cols := []*obs.Collector{
		obs.NewCollector(obs.AllKinds()...), obs.NewCollector(obs.AllKinds()...), obs.NewCollector(obs.AllKinds()...),
	}
	bus := obs.NewBus(nil, reg, cols[0], cols[1], cols[2])

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pid := model.ProcessID(p)
			for i := 0; i < per; i++ {
				sent := []*model.Message{msg(pid, (pid+1)%procs, uint64(i+1), "EST")}
				bus.OnStep(model.Time(i+1), pid, nil, nil, sent, nil)
			}
		}(p)
	}
	wg.Wait()

	base := cols[0].Events()
	if len(base) != procs*per*2 { // one step + one send event per OnStep
		t.Fatalf("collector 0 holds %d events, want %d", len(base), procs*per*2)
	}
	for i, c := range cols[1:] {
		if !reflect.DeepEqual(base, c.Events()) {
			t.Errorf("collector %d saw a different event sequence than collector 0", i+1)
		}
	}
	if got := reg.Counter("bus.steps").Value(); got != procs*per {
		t.Errorf("bus.steps = %d, want %d", got, procs*per)
	}
	if got := reg.Counter("msgs.sent.EST").Value(); got != procs*per {
		t.Errorf("msgs.sent.EST = %d, want %d", got, procs*per)
	}
}

// TestWallClockStamps: with the Wall shim injected (as the concurrent
// substrates do), events carry nonzero wall stamps and JSONL includes the
// wall field — the diagnostic-only path.
func TestWallClockStamps(t *testing.T) {
	all := obs.NewCollector(obs.AllKinds()...)
	bus := obs.NewBus(nil, nil, all)
	bus.SetClock(obs.Wall{})
	bus.OnStep(1, 0, nil, nil, nil, nil)
	evs := all.Events()
	if len(evs) != 1 || evs[0].Wall == 0 {
		t.Fatalf("expected one wall-stamped event, got %+v", evs)
	}
	line := obs.JSONLine(evs[0])
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("bad JSONL line %q: %v", line, err)
	}
	if _, ok := m["wall"]; !ok {
		t.Errorf("wall stamp missing from %q", line)
	}
}
