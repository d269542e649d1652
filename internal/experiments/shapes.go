package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
	"nuconsensus/internal/wire"
)

// The specs rest on three kinds of evidence, and this file holds the run
// each kind shares: a consensus outcome under a detector history, a
// detector's emitted history held to its specification, and a replicated
// log. A spec supplies what differs — automaton, history, crash placement,
// budget, check — and keeps its own call wherever its execution differs.

// quorumFD builds the quorum half of an (Ω, ·) pair history.
type quorumFD func(p *model.FailurePattern, t model.Time, seed int64) model.History

func sigma(p *model.FailurePattern, t model.Time, seed int64) model.History {
	return fd.NewSigma(p, t, seed)
}

func sigmaNu(p *model.FailurePattern, t model.Time, seed int64) model.History {
	return fd.NewSigmaNu(p, t, seed)
}

func sigmaNuPlus(p *model.FailurePattern, t model.Time, seed int64) model.History {
	return fd.NewSigmaNuPlus(p, t, seed)
}

// withOmega is the (Ω, quorum) pair history, both halves stabilizing at t.
func withOmega(quorum quorumFD, p *model.FailurePattern, t model.Time, seed int64) model.History {
	return fd.PairHistory{First: fd.NewOmega(p, t, seed), Second: quorum(p, t, seed)}
}

// paired is a consensus algorithm A with the quorum detector it runs
// beside Ω: the (D, A) pairs the consensus and extraction specs share.
type paired struct {
	alg, det string
	build    transform.TargetFactory
	quorum   quorumFD
}

// hist is the pair's (Ω, quorum) history, stabilizing at t.
func (a paired) hist(p *model.FailurePattern, t model.Time, seed int64) model.History {
	return withOmega(a.quorum, p, t, seed)
}

var (
	aNuc = paired{"A_nuc", "(Ω,Σν+)",
		func(props []int) model.Automaton { return consensus.NewANuc(props) }, sigmaNuPlus}
	mrSigma = paired{"MR-Σ", "(Ω,Σ)",
		func(props []int) model.Automaton { return consensus.NewMRSigma(props) }, sigma}
	mrMajority = paired{"MR-majority", "(Ω,Σ)",
		func(props []int) model.Automaton { return consensus.NewMRMajority(props) }, sigma}
)

// bothSides are the nonuniform pair and the uniform one: the (D, A) pairs
// of E4, the contestants of Q2 and the two sides of E14's gap.
var bothSides = []paired{aNuc, mrSigma}

// boostedANuc is A_nuc behind T_{Σν→Σν+}, Theorem 6.28's algorithm for
// (Ω, Σν).
func boostedANuc(props []int) model.Automaton {
	return transform.NewComposed(transform.NewSigmaNuPlusTransformer(len(props)), consensus.NewANuc(props))
}

// outcomeUnit is the consensus-outcome unit of E1 and E2: crash cfg.F
// random processes by maxCrash, run a on mixed proposals under its history
// stabilizing at stab, and require nonuniform consensus.
func outcomeUnit(sc Scale, cfg Config, rng *rand.Rand, a paired, maxCrash, stab model.Time, budget int) UnitResult {
	var u UnitResult
	pattern := randomPattern(cfg.N, cfg.F, maxCrash, rng)
	r, err := runConsensus(sc, a.build(mixedProposals(cfg.N, rng)), pattern, a.hist(pattern, stab, cfg.Seed), cfg.Seed, budget)
	if err == nil && r.Decided && r.Outcome.NonuniformConsensus(pattern) == nil {
		u.OK = true
	} else {
		u.failf("%v: decided=%v err=%v consensus=%v", cfg, r.Decided, err, r.Outcome.NonuniformConsensus(pattern))
	}
	u.Add("steps", r.Steps)
	u.Add("rounds", r.MaxRound)
	u.Add("msgs", r.Sent)
	return u
}

// tally runs aut once and records the outcome on u as the counters
// key+"runs", key+"viol" (nonuniform agreement broken), key+"fdiv" (only
// a faulty process decided differently) and key+"undec". A run that errors
// out is not counted.
func tally(u *UnitResult, key string, sc Scale, aut model.Automaton, pattern *model.FailurePattern, hist model.History, seed int64, maxSteps int) {
	r, err := runConsensus(sc, aut, pattern, hist, seed, maxSteps)
	if err != nil {
		return
	}
	u.Add(key+"runs", 1)
	if r.Outcome.NonuniformAgreement(pattern) != nil {
		u.Add(key+"viol", 1)
	} else if r.Decided && r.Outcome.UniformAgreement() != nil {
		u.Add(key+"fdiv", 1)
	}
	if !r.Decided {
		u.Add(key+"undec", 1)
	}
}

// fdRun is the detector-history shape (E3–E5, E8, E11, E13, Q3, Q6): run
// aut on the simulator and read back its emitted history H′(p, t). sched
// defaults to the fair scheduler on the unit's seed and horizon — the last
// time the history deviated from its eventual form — to the last
// completeness violation.
type fdRun struct {
	aut     model.Automaton
	pattern *model.FailurePattern
	hist    model.History
	sched   sim.Scheduler
	steps   int
	horizon func([]check.Sample, *model.FailurePattern) (model.Time, error)
	spec    func([]check.Sample, *model.FailurePattern, model.Time) error
}

// run returns the emitted history, its horizon and the run's length.
func (r fdRun) run(seed int64) (outs []check.Sample, stab, end model.Time, err error) {
	if r.sched == nil {
		r.sched = sim.NewFairScheduler(seed, 0.8, 3)
	}
	if r.horizon == nil {
		r.horizon = check.LastCompletenessViolation
	}
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: r.aut,
		Pattern:   r.pattern,
		History:   r.hist,
		Scheduler: r.sched,
		MaxSteps:  r.steps,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	outs = check.History(col.Events(), res.Ticks)
	stab, err = r.horizon(outs, r.pattern)
	return outs, stab, res.Ticks, err
}

// unit is the verdict the specs with a specification share: the history
// must settle within the run's first four fifths and satisfy spec from its
// horizon on. A positive horizon is added as "stab".
func (r fdRun) unit(cfg Config) UnitResult {
	var u UnitResult
	outs, stab, end, err := r.run(cfg.Seed)
	if err == nil && stab > end*4/5 {
		err = fmt.Errorf("unsettled until %d of %d", stab, end)
	}
	if err == nil {
		err = r.spec(outs, r.pattern, stab)
	}
	if err != nil {
		u.failf("%v: %v", cfg, err)
		return u
	}
	u.OK = true
	if stab > 0 {
		u.Add("stab", int(stab))
	}
	return u
}

// lastDeviation is a horizon: the last time a correct process emitted a
// value off reports as not the eventual one, or -1.
func lastDeviation(off func(model.FDValue) bool) func([]check.Sample, *model.FailurePattern) (model.Time, error) {
	return func(outs []check.Sample, pattern *model.FailurePattern) (model.Time, error) {
		correct := pattern.Correct()
		last := model.Time(-1)
		for _, s := range outs {
			if correct.Has(s.P) && off(s.Val) && s.T > last {
				last = s.T
			}
		}
		return last, nil
	}
}

// partialSync schedules hostilely before gst (deliver probability
// deliver, up to skip skips) and timely after it.
func partialSync(gst model.Time, seed int64, deliver float64, skip int) sim.Scheduler {
	return &sim.PartialSyncScheduler{
		GST:    gst,
		Before: sim.NewFairScheduler(seed, deliver, skip),
		After:  sim.NewFairScheduler(seed+99, 0.9, 2),
	}
}

// staggered crashes f processes at t0, t0+dt, …: the lowest ids when low,
// else the highest.
func staggered(n, f int, low bool, t0, dt model.Time) *model.FailurePattern {
	pat := model.NewFailurePattern(n)
	for i := 0; i < f; i++ {
		p := model.ProcessID(n - 1 - i)
		if low {
			p = model.ProcessID(i)
		}
		pat.SetCrash(p, t0+dt*model.Time(i))
	}
	return pat
}

// oneCommandEach is E17's replicated-log workload: replica p submits the
// one command 100p+1.
func oneCommandEach(n int) [][]int {
	cmds := make([][]int, n)
	for p := range cmds {
		cmds[p] = []int{100*p + 1}
	}
	return cmds
}

// logsAgree reports whether every correct replica holds the same log.
func logsAgree(c *model.Configuration, pattern *model.FailurePattern) bool {
	var ref []int
	agree := true
	pattern.Correct().ForEach(func(p model.ProcessID) {
		entries := c.States[p].(rsm.LogHolder).Entries()
		if ref == nil {
			ref = entries
			return
		}
		agree = agree && slices.Equal(entries, ref)
	})
	return agree
}

// runLog drives a replicated-log automaton (E17, E18) on the scale's
// substrate until every correct replica has filled its log, and fails if
// the budget — MaxSteps×8 up to 400000, at least 3,000,000 on the
// concurrent substrates — runs out first.
func runLog(sc Scale, aut model.Automaton, pattern *model.FailurePattern, hist model.History, seed int64) (*substrate.Result, error) {
	res, err := sc.run(aut, pattern, hist, seed, min(sc.MaxSteps*8, 400000), 3_000_000)
	if err == nil && !res.Decided {
		err = errors.New("log not filled")
	}
	return res, err
}

// logMeter wraps a replicated-log automaton with measurement taps: sends
// (a bundle is one), the history freight in them (the bytes of the history
// frames a send's LEADD and PROPD items carry, as the real wire codec
// encodes them: a frame an item inherits costs nothing), and the
// high-water history-store entries of any process. The
// substrate steps processes from independent goroutines on the concurrent
// backends, so the taps are atomics; they are per-unit, so the recorded
// numbers stay deterministic on sim at any engine worker count.
type logMeter struct {
	model.Automaton
	msgs      atomic.Int64
	histBytes atomic.Int64
	peakHist  atomic.Int64
}

func (a *logMeter) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	var hist int64
	for _, snd := range sends {
		if n, err := wire.HistoryFrameLen(snd.Payload); err == nil {
			hist += int64(n)
		}
	}
	a.msgs.Add(int64(len(sends)))
	a.histBytes.Add(hist)
	for peak := int64(rsm.StatsOf(ns).HistEntries); ; {
		cur := a.peakHist.Load()
		if peak <= cur || a.peakHist.CompareAndSwap(cur, peak) {
			break
		}
	}
	return ns, sends
}

// fold adds a unit registry's named counters into the run-wide registry
// and raises its named gauges to the unit's: commutative adds and maxes
// only, so the dump is the same at any worker count.
func fold(dst, src *obs.Registry, counters, gauges []string) {
	for _, name := range counters {
		dst.Counter(name).Add(src.Counter(name).Value())
	}
	for _, name := range gauges {
		dst.Gauge(name).Max(src.Gauge(name).Value())
	}
}
