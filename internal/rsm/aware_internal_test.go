package rsm

import (
	"fmt"
	"math"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// TestAcknowledgedBefore pins the seeding gate: a quorum is handed to a new
// instance of a slot iff every member acknowledged it with a stamp below
// that slot.
func TestAcknowledgedBefore(t *testing.T) {
	q := model.SetOf(0, 1, 2)
	cases := []struct {
		name   string
		slot   int
		q      model.ProcessSet
		stamps []int
		want   bool
	}{
		{"every member acknowledged in an earlier window", 5, q, []int{3, 4, 2, unacked}, true},
		{"a member has not acknowledged", 5, q, []int{3, unacked, 2, 0}, false},
		{"pipelined: the acker had already opened the slot", 5, q, []int{3, 5, 2, 0}, false},
		{"pipelined: the acker's window was past the slot", 5, q, []int{3, 7, 2, 0}, false},
		{"stamp one below the slot is the boundary", 5, q, []int{4, 4, 4, unacked}, true},
		{"non-members are not consulted", 5, model.SetOf(0, 2), []int{1, unacked, 1, unacked}, true},
		{"slot 0 has nothing before it", 0, q, []int{0, 0, 0, 0}, false},
		{"an empty quorum is never seeded", 5, 0, []int{0, 0, 0, 0}, false},
	}
	for _, c := range cases {
		if got := acknowledgedBefore(c.slot, c.q, c.stamps); got != c.want {
			t.Errorf("%s: acknowledgedBefore(%d, %s, %v) = %v, want %v", c.name, c.slot, c.q, c.stamps, got, c.want)
		}
	}
}

// TestRecordAckKeepsEarliestStamp: the duplicate-ACK row. Every instance
// that is not seeded announces Q again, so a member acknowledges it many
// times; the record keeps the smallest stamp — the earliest point the
// member is known to have held (p, Q) — whatever order the ACKs come in.
func TestRecordAckKeepsEarliestStamp(t *testing.T) {
	st := NewLog([][]int{{}, {}, {}}, 16).InitState(0).(*logState)
	if st.aware != nil {
		t.Fatal("the record must be a nil map until the first ACK")
	}
	q := model.SetOf(0, 1)
	for _, stamp := range []int{7, 3, 9} {
		st.recordAck(1, AckStampPayload{Q: q, K: 1, Stamp: stamp}, nil)
	}
	if got := st.aware[q]; got[1] != 3 || got[0] != unacked || got[2] != unacked {
		t.Fatalf("record for %s = %v, want p1 at stamp 3 and nobody else", q, got)
	}
	if acknowledgedBefore(4, q, st.aware[q]) {
		t.Error("seeded with p0's acknowledgement still missing")
	}
	st.recordAck(0, AckStampPayload{Q: q, K: 1, Stamp: 2}, nil)
	if acknowledgedBefore(3, q, st.aware[q]) || !acknowledgedBefore(4, q, st.aware[q]) {
		t.Errorf("record %v must seed slot 4 and not slot 3", st.aware[q])
	}
}

// TestAckStampedWithWindowTop: the stamp on an outgoing ACK is the highest
// slot of the acker's window when it ran the SAW handler, and an ACK that
// arrives for a slot retired here is still recorded.
func TestAckStampedWithWindowTop(t *testing.T) {
	aut := NewLog([][]int{{}, {}, {}}, 16).WithPipeline(2)
	d := parkedFD()
	q := model.SetOf(0, 1, 2)
	st := aut.InitState(0).(*logState)
	saw := &model.Message{From: 1, To: 0, Seq: 1, Payload: SlotPayload{Slot: 1, Inner: consensus.SawPayload{Q: q}}}
	ns, sends := aut.Step(0, st, saw, d)
	var acks []AckStampPayload
	for _, snd := range Flatten(sends) {
		if sp, ok := snd.Payload.(SlotPayload); ok {
			if ack, ok := sp.Inner.(AckStampPayload); ok && snd.To == 1 && sp.Slot == 1 {
				acks = append(acks, ack)
			}
		}
	}
	if len(acks) != 1 || acks[0].Q != q || acks[0].Stamp != 1 {
		t.Fatalf("ACKs for the SAW = %v, want one for %s stamped 1 (window [0,1])", acks, q)
	}

	st = ns.(*logState)
	ack := &model.Message{From: 2, To: 0, Seq: 1, Payload: SlotPayload{Slot: -1, Inner: AckStampPayload{Q: q, K: 3, Stamp: 4}}}
	ns, _ = aut.Step(0, st, ack, d)
	if got := ns.(*logState).aware[q]; got == nil || got[2] != 4 {
		t.Fatalf("record after an ACK for a slot not live here = %v, want p2 at stamp 4", got)
	}
}

// eventTime places something a process did: the inner step — A_nuc's own
// Step, of which one outer step of the log runs many (drain replays deferred
// messages, and loopback delivers the process's own SAW, ACK, LEAD, REP and
// PROP, so a poll of Q, the PROPs and a decision with Q can all share an
// outer step) — then the index among that inner step's sends it preceded.
type eventTime struct{ step, idx int }

func (a eventTime) before(b eventTime) bool {
	return a.step < b.step || (a.step == b.step && a.idx < b.idx)
}

type histKey struct {
	r model.ProcessID
	q model.ProcessSet
}

// awarenessAuditor wraps the log automaton and checks Lemma 6.24's
// statement on every decision of every slot instance: each member of the
// deciding quorum Q held (p, Q) in its store strictly before it sent the
// PROP the decision consumed. It records, per process and at inner-step
// granularity (innerAudit), when each (r, Q) first entered the store and
// when each PROP(slot, k) was sent, and checks decisions after every outer
// step.
type awarenessAuditor struct {
	model.Automaton
	cur     *logState // the state the outer step in progress is stepping
	step    int       // inner steps so far, over all processes
	known   []map[histKey]eventTime
	prop    []map[[2]int]eventTime
	version []uint64       // store version at the last scan
	audited []map[int]bool // slots whose decision has been checked

	decisions, firstRound int
	violations            []string
}

// newAwarenessAuditor audits log, driven as aut (log itself, or a wrapper
// around it): it wraps log's inner automaton to see every inner step.
func newAwarenessAuditor(log *Log, aut model.Automaton) *awarenessAuditor {
	n := aut.N()
	a := &awarenessAuditor{Automaton: aut, known: make([]map[histKey]eventTime, n),
		prop: make([]map[[2]int]eventTime, n), version: make([]uint64, n), audited: make([]map[int]bool, n)}
	for p := 0; p < n; p++ {
		a.known[p] = map[histKey]eventTime{}
		a.prop[p] = map[[2]int]eventTime{}
		a.audited[p] = map[int]bool{}
	}
	log.inner = innerAudit{slotAutomaton: log.inner, a: a}
	return a
}

// innerAudit is the log's A_nuc as the auditor sees it: every inner step
// is recorded, with its sends as A_nuc emitted them, before the log
// slot-tags and delta-encodes them in place.
type innerAudit struct {
	slotAutomaton
	a *awarenessAuditor
}

func (w innerAudit) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := w.slotAutomaton.Step(p, s, m, d)
	w.a.innerStep(p, s, sends)
	return ns, sends
}

// innerStep records one inner step of p's instance inst: the store entries
// first visible after it, and the PROPs it sent.
func (a *awarenessAuditor) innerStep(p model.ProcessID, inst model.State, sends []model.Send) {
	a.step++
	st := a.cur
	if st.p != p {
		panic(fmt.Sprintf("inner step of p%d inside an outer step of p%d", p, st.p))
	}
	if ver := st.store.v.Version(); ver != a.version[p] {
		a.version[p] = ver
		for r, set := range st.store.v.Histories() {
			for _, q := range set {
				key := histKey{model.ProcessID(r), q}
				if _, had := a.known[p][key]; !had {
					a.known[p][key] = eventTime{a.step, entryIndex(p, key, sends)}
				}
			}
		}
	}
	for i, snd := range sends {
		if pr, ok := snd.Payload.(consensus.ProposalPayload); ok {
			key := [2]int{slotOf(st, inst), pr.K}
			if _, had := a.prop[p][key]; !had {
				a.prop[p][key] = eventTime{a.step, i}
			}
		}
	}
}

// slotOf finds the slot whose instance inst is.
func slotOf(st *logState, inst model.State) int {
	for slot, r := range st.recs {
		if r.inst == inst {
			return slot
		}
	}
	panic("an inner step of an instance no record holds")
}

func (a *awarenessAuditor) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	a.cur = s.(*logState)
	ns, sends := a.Automaton.Step(p, s, m, d)
	st := ns.(*logState)
	for _, slot := range st.liveSlots() {
		if a.audited[p][slot] {
			continue
		}
		q, k, decided := liveAt(st, slot).(interface {
			DecidedWith() (model.ProcessSet, int, bool)
		}).DecidedWith()
		if !decided {
			continue
		}
		a.audited[p][slot] = true
		a.decisions++
		if k == 1 {
			a.firstRound++ // only a seeded quorum passes line 30 in round 1
		}
		q.ForEach(func(r model.ProcessID) {
			knew, ok1 := a.known[r][histKey{p, q}]
			sent, ok2 := a.prop[r][[2]int{slot, k}]
			if !ok1 || !ok2 || !knew.before(sent) {
				a.violations = append(a.violations, fmt.Sprintf(
					"step %d: p%d decided slot %d in round %d with %s, but member p%d learnt (p%d, %s) at %v (recorded=%v) and sent PROP(%d, %d) at %v (recorded=%v)",
					a.step, p, slot, k, q, r, p, q, knew, ok1, slot, k, sent, ok2))
			}
		})
	}
	return ns, sends
}

// entryIndex places, within the first inner step after which it is visible,
// a store entry (r, Q) of process p. An entry of another process comes from
// the SAW handler — the ACK it emits marks the spot — or else from a delta
// applied before the inner step ran, on its message or on one deferred or
// dropped earlier. p's own entries come from get_quorum at an unknown point
// of the inner step: placed after all its sends, the conservative end (p
// cannot decide with Q in the inner step it first polled it: its SAW for Q
// has to be acknowledged first, by itself included, in later inner steps).
func entryIndex(p model.ProcessID, e histKey, sends []model.Send) int {
	if e.r == p {
		return math.MaxInt
	}
	for i, snd := range sends {
		if ack, ok := snd.Payload.(consensus.AckPayload); ok && snd.To == e.r && ack.Q == e.q {
			return i
		}
	}
	return -1
}

// zeroStamps is the deliberately broken variant the auditor must catch: it
// zeroes the stamp on every incoming ACK, so a quorum is seeded into every
// later slot whether or not its members had already opened — and sent PROPs
// in — that slot. It lives here, in a test file: no production path weakens
// the stamp comparison.
type zeroStamps struct{ model.Automaton }

func (z zeroStamps) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if m != nil {
		var items Bundle
		for _, snd := range Flatten([]model.Send{{To: p, Payload: m.Payload}}) {
			pl := snd.Payload
			if sp, ok := pl.(SlotPayload); ok {
				if ack, ok := sp.Inner.(AckStampPayload); ok {
					ack.Stamp = 0
					pl = SlotPayload{Slot: sp.Slot, Inner: ack}
				}
			}
			items = append(items, pl)
		}
		cp := *m
		cp.Payload = items
		if len(items) == 1 {
			cp.Payload = items[0]
		}
		m = &cp
	}
	return z.Automaton.Step(p, s, m, d)
}

const (
	auditSlots     = 12
	auditStabilize = 400 // ticks: quorums and leaders keep changing for the first several slots
)

// auditCase is one audited execution. The stock (Ω, Σν+) histories put every
// correct process in every correct quorum, so under a fair scheduler nobody
// gets a slot ahead of a quorum member and a stamp is never the binding
// constraint. The laggard family is the other half of the grid: correct
// quorums are core ∪ {p} (plus noise until the detectors settle) for a
// two-process core — still Σν+: they meet in the core and contain p — and
// the last correct process outside the core takes no step until the core is
// halfway through the log, so it acknowledges, and is acknowledged by,
// processes whose windows are far from its own.
type auditCase struct {
	n, window int
	crash     bool // the highest process dies at tick 150, before the detectors settle
	laggard   bool
	seed      int64
}

func (c auditCase) String() string {
	return fmt.Sprintf("n=%d window=%d crash=%v laggard=%v seed=%d", c.n, c.window, c.crash, c.laggard, c.seed)
}

// coredSigmaNuPlus narrows the stock Σν+ history's correct quorums to
// core ∪ {p} ∪ noise; faulty modules keep the stock junk quorums.
func coredSigmaNuPlus(pattern *model.FailurePattern, core model.ProcessSet, seed int64) model.History {
	stock := fd.NewSigmaNuPlus(pattern, auditStabilize, fd.DeriveSeed("sigmanu+", seed))
	return fd.HistoryFunc(func(p model.ProcessID, t model.Time) model.FDValue {
		v := stock.Output(p, t)
		if !pattern.Correct().Has(p) {
			return v
		}
		q := core.Add(p)
		if t < auditStabilize {
			all, _ := fd.QuorumOf(v)
			mask := (uint64(seed)*0x9E3779B97F4A7C15 + uint64(t)*0xBF58476D1CE4E5B9 + uint64(p)*0x94D049BB133111EB) >> 24
			q = q.Union(all.Intersect(model.ProcessSet(mask)))
		}
		return fd.QuorumValue{Quorum: q}
	})
}

// starveUntilHalfway withholds every step from victim until each process of
// core has appended half the log (asynchrony: any process may be this slow).
type starveUntilHalfway struct {
	inner    sim.Scheduler
	victim   model.ProcessID
	core     model.ProcessSet
	released bool
}

func (s *starveUntilHalfway) Next(t model.Time, alive model.ProcessSet, c *model.Configuration) (model.ProcessID, *model.Message) {
	if !s.released {
		s.released = true
		s.core.ForEach(func(p model.ProcessID) {
			if c.States[p].(*logState).slot < auditSlots/2 {
				s.released = false
			}
		})
		if !s.released {
			alive = alive.Remove(s.victim)
		}
	}
	return s.inner.Next(t, alive, c)
}

// auditRun fills one log under the auditor and returns it.
func auditRun(t *testing.T, c auditCase, wrap func(model.Automaton) model.Automaton) *awarenessAuditor {
	t.Helper()
	var crashes map[model.ProcessID]model.Time
	if c.crash {
		crashes = map[model.ProcessID]model.Time{model.ProcessID(c.n - 1): 150}
	}
	pattern := model.PatternFromCrashes(c.n, crashes)
	cmds := make([][]int, c.n)
	for p := range cmds {
		cmds[p] = []int{100*p + 1, 100*p + 2, 100*p + 3}
	}
	hist := PairForLog(pattern, auditStabilize, c.seed)
	var sched sim.Scheduler = sim.NewFairScheduler(c.seed, 0.8, 3)
	if c.laggard {
		correct := pattern.Correct().Slice()
		core := model.SetOf(correct[:2]...)
		hist = fd.PairHistory{
			First:  fd.NewOmega(pattern, auditStabilize, fd.DeriveSeed("omega", c.seed)),
			Second: coredSigmaNuPlus(pattern, core, c.seed),
		}
		if len(correct) > 2 { // n=3 with the crash: the core is everyone left
			sched = &starveUntilHalfway{inner: sched, victim: correct[len(correct)-1], core: core}
		}
	}
	sampler := fd.NewSampler(hist)
	log := NewLog(cmds, auditSlots).WithSampler(sampler).WithPipeline(c.window)
	var aut model.Automaton = log
	if wrap != nil {
		aut = wrap(aut)
	}
	audit := newAwarenessAuditor(log, aut)
	res, err := sim.Run(sim.Exec{
		Automaton: audit,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sched,
		MaxSteps:  400000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil || !res.Stopped {
		t.Fatalf("%s: err=%v filled=%v", c, err, res != nil && res.Stopped)
	}
	return audit
}

// auditSweep runs n ∈ {3,4,5} × window ∈ {1,2,4} × {fault-free, one crash}
// over stockSeeds seeds of the stock detectors under a fair scheduler and
// laggardSeeds seeds of the laggard family, and folds the auditors' counts.
func auditSweep(t *testing.T, stockSeeds, laggardSeeds int, wrap func(model.Automaton) model.Automaton) (decisions, firstRound int, violations []string) {
	t.Helper()
	for _, n := range []int{3, 4, 5} {
		for _, window := range []int{1, 2, 4} {
			for _, crash := range []bool{false, true} {
				for _, laggard := range []bool{false, true} {
					seeds := stockSeeds
					if laggard {
						seeds = laggardSeeds
					}
					for seed := int64(1); seed <= int64(seeds); seed++ {
						a := auditRun(t, auditCase{n, window, crash, laggard, seed}, wrap)
						decisions += a.decisions
						firstRound += a.firstRound
						violations = append(violations, a.violations...)
					}
				}
			}
		}
	}
	return
}

// TestAwarenessAudit is the sweep: on every decision, seeded or not, every
// member of the deciding quorum knew (p, Q) strictly before sending the
// PROP consumed. -short runs it at reduced seeds, and so does -race: the
// sim substrate is single-threaded, so the detector only makes the same
// sweep eight times slower.
func TestAwarenessAudit(t *testing.T) {
	stock, laggard := 200, 60
	if testing.Short() || raceDetector {
		stock, laggard = 12, 12
	}
	decisions, firstRound, violations := auditSweep(t, stock, laggard, nil)
	t.Logf("%d decisions audited, %d of them in round 1 (seeded)", decisions, firstRound)
	if len(violations) > 0 {
		t.Fatalf("%d violations of Lemma 6.24's statement; first: %s", len(violations), violations[0])
	}
	if firstRound == 0 {
		t.Fatal("no instance decided in round 1: the sweep never exercised a seeded quorum")
	}
}

// TestAwarenessAuditCatchesZeroedStamps shows the auditor discriminates: the
// same sweep with the stamp comparison defeated (zeroStamps) must produce
// violations.
func TestAwarenessAuditCatchesZeroedStamps(t *testing.T) {
	decisions, _, violations := auditSweep(t, 6, 12, func(a model.Automaton) model.Automaton { return zeroStamps{a} })
	t.Logf("zeroed stamps: %d violations in %d decisions; first: %.200s", len(violations), decisions, append(violations, "none")[0])
	if len(violations) == 0 {
		t.Fatal("the auditor passed a log whose stamp comparison is disabled: it cannot tell the rule from its absence")
	}
}
