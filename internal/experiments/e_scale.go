package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
)

// E17 measures how the replicated log's costs scale with log length. The
// log keeps one versioned history store per process, shared by all live
// slot instances, with LEAD/PROP carrying a history frame — the adds since
// what this process last shipped to that destination, and the version they
// reach (see internal/rsm/shared.go and the internal/wire grammar).
// The plumbing it replaced — owned mode, removed in PR 17: a full history
// copy per live instance, cloned inline into every LEAD/PROP — survives as
// recorded numbers the gates below are set against (EXPERIMENTS.md keeps
// its rows).
//
// Per run, logMeter taps the history freight of each message — the bytes
// of its history frames as the real wire codec encodes them
// (wire.HistoryFrameLen) — and the high-water live-state history footprint
// of any single process (rsm.StatsOf, sampled at every step).

const e17N = 5

// e17MsgsPerSlotCap bounds msgs/slot at the longest grid point. It guards
// the log's per-slot cost as the log ages: with quorum awareness carried
// across slots (internal/rsm aware.go) all but the first few slots decide
// in round 1, and a decided instance holds the next round's LEAD until
// somebody is heard there (rsm stepInstance), so such a slot costs one
// round of traffic, none of it to the sender itself (rsm loopback), what
// one step sends one peer is one bundle (rsm pack), progress rides that
// traffic instead of leaving bare, and a round-1 LEAD goes only to the
// processes that follow its sender (both rows of rsm outbox.go). Set at
// max(⌈35.0 × 1.12⌉, ⌈35.7⌉ + 1): the quick reading + 12 % against the
// async maximum over ten runs + 1.
const e17MsgsPerSlotCap = 40

// e17HistBytesPerSlotCap bounds history freight per decided slot at the
// longest grid point. The denominator is slots, not messages: PRGR and CMD
// carry no history, so a change that only sends fewer of them must not read
// as heavier freight. Freight is the bytes of the history frames as
// encoded: 27.6 measured, where a frame without adds is one byte and a
// bundled one that repeats the frame before it none; 654.2 when every
// LEAD/PROP ships a full snapshot instead of the delta since the
// destination's last frame. Set at max(⌈27.6 × 1.12⌉, ⌈28.1⌉ + 1), as
// e17MsgsPerSlotCap.
const e17HistBytesPerSlotCap = 31

var e17SlotsGrid = []int{4, 8, 16, 64}

var e17Spec = &Spec{
	ID:    "E17",
	Title: "Long-log scale: bytes-on-wire and live state of the per-process history store",
	Claim: "§1 motivation, run long enough to hurt: with retirement stalled " +
		"by a crash, unretired slot instances pile up with log length, but " +
		"the log holds one versioned history store per process and ships " +
		"O(delta) frames, so live state stays flat, history freight per slot " +
		"stays a fraction of a full clone's, and incremental deltas dominate snapshot " +
		"fallbacks. A decided slot goes quiet once nobody can use its " +
		"messages, so msgs/slot does not grow with the number of unretired " +
		"instances; and a quorum acknowledged in one slot is already seen " +
		"in the next, so all but the first slots decide in round 1.",
	Columns: []string{"mode", "slots", "runs", "ok", "msgs/slot", "hist bytes/slot", "peak hist entries", "delta hits", "fallbacks"},
	// Portable: the unit drives the substrate interface directly (with
	// StopWhenDecided — logState implements model.Decider), so it runs
	// unchanged on the async and tcp backends.
	Portable: true,
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for _, slots := range e17SlotsGrid {
			cfgs = append(cfgs, seedRange(Config{N: e17N, Arg: slots}, sc.Seeds)...)
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		// One early crash stalls progress gossip at the crashed process's
		// last slot: instances above it never retire, so the live-instance
		// count — and anything kept per instance — grows with log length.
		pattern := staggered(e17N, 1, false, 30, 0)
		reg := obs.NewRegistry()
		sampler := rsm.SamplerForLog(pattern, 80, cfg.Seed)
		meter := &logMeter{Automaton: rsm.NewLog(oneCommandEach(e17N), cfg.Arg).WithMetrics(reg).WithSampler(sampler)}
		res, err := runLog(sc, meter, pattern, sampler, cfg.Seed)
		if err == nil && !logsAgree(res.Config, pattern) {
			err = errors.New("correct logs diverged")
		}
		if gaps := reg.Counter("rsm.hist.delta_gaps").Value(); err == nil && gaps != 0 {
			err = fmt.Errorf("%d delta gaps on a FIFO substrate", gaps)
		}
		if err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		u.OK = true
		u.Add("msgs", int(meter.msgs.Load()))
		u.Add("histwire", int(meter.histBytes.Load()))
		u.Add("hist", int(meter.peakHist.Load()))
		u.Add("hits", int(reg.Counter("rsm.hist.delta_hits").Value()))
		u.Add("falls", int(reg.Counter("rsm.hist.full_fallbacks").Value()))
		fold(sc.Metrics, reg, []string{"rsm.hist.delta_hits", "rsm.hist.full_fallbacks", "rsm.hist.delta_gaps"},
			[]string{"rsm.hist.store_bytes", "rsm.hist.store_entries"})
		return u
	},
	Row: func(_ Scale, g Group) []string {
		slots := g.Key.Arg
		// The mode column stays so the rows line up with the recorded
		// owned-mode baseline's.
		return []string{"shared", itoa(slots), itoa(g.Runs()), itoa(g.OKs()),
			avg(g.Sum("msgs")/slots, g.OKs()), avg(g.Sum("histwire"), slots*g.OKs()),
			g.AvgOverOK("hist"), g.AvgOverOK("hits"), g.AvgOverOK("falls")}
	},
	Finalize: func(sc Scale, t *Table, gs []Group) {
		var hits, falls int
		for _, g := range gs {
			if g.OKs() == 0 {
				t.Pass = false
				return
			}
			hits += g.Sum("hits")
			falls += g.Sum("falls")
		}
		// The grid's endpoints (gs is in grid order): high-water store
		// entries and msgs/slot at both, history bytes per slot at the long
		// one.
		short, long := gs[0], gs[len(gs)-1]
		peak := func(g Group) float64 { return float64(g.Sum("hist")) / float64(g.OKs()) }
		perSlot := func(g Group) float64 { return float64(g.Sum("msgs")) / float64(g.Key.Arg*g.OKs()) }
		freight := float64(long.Sum("histwire")) / float64(long.Key.Arg*long.OKs())
		t.Notes = append(t.Notes,
			fmt.Sprintf("history freight at %d slots: %.1f bytes/slot in history frames (recorded owned-mode baseline: ≈ 1120, 4.2 bytes in each of 267.1 msgs/slot, a full history clone in every LEAD/PROP)",
				long.Key.Arg, freight),
			fmt.Sprintf("peak live-state entries, %d→%d slots: %.0f→%.0f, one store per process (recorded owned-mode baseline: 20→260, one history copy per unretired instance)",
				short.Key.Arg, long.Key.Arg, peak(short), peak(long)),
			fmt.Sprintf("delta transport: %d incremental delta applications vs %d full-snapshot fallbacks", hits, falls),
			fmt.Sprintf("msgs/slot at %d slots over msgs/slot at %d: %.2f (a decided slot goes quiet and later slots start with the quorum already acknowledged; the crash costs no more per slot as the log ages)",
				long.Key.Arg, short.Key.Arg, perSlot(long)/perSlot(short)))
		if perSlot(long) > e17MsgsPerSlotCap {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"FAIL: msgs/slot at %d slots is %.1f, above %d: slots no longer decide in round 1 on an already-acknowledged quorum, or announce the round after it unasked",
				long.Key.Arg, perSlot(long), e17MsgsPerSlotCap))
		}
		if perSlot(long) > 1.1*perSlot(short) {
			t.Pass = false
			t.Notes = append(t.Notes, "FAIL: msgs/slot should stay flat as the log grows (decided instances go quiet)")
		}
		if freight > e17HistBytesPerSlotCap {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"FAIL: history freight at %d slots is %.1f bytes/slot, above %d: LEAD/PROP ship more than the delta since the destination's last frame",
				long.Key.Arg, freight, e17HistBytesPerSlotCap))
		}
		if peak(long) > 1.5*peak(short) {
			t.Pass = false
			t.Notes = append(t.Notes, "FAIL: live state should stay flat as the log grows (owned mode grew 20→260)")
		}
		if hits <= 10*falls {
			t.Pass = false
			t.Notes = append(t.Notes, "FAIL: incremental deltas should dominate snapshot fallbacks")
		}
	},
}
