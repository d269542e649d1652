package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// E17 measures how the replicated log's costs scale with log length. The
// log keeps one versioned history store per process, shared by all live
// slot instances, with LEAD/PROP carrying (base, delta) against what this
// process last shipped to that destination (see internal/rsm/shared.go).
// The plumbing it replaced — owned mode, removed in PR 17: a full history
// copy per live instance, cloned inline into every LEAD/PROP — survives as
// recorded numbers the gates below are set against (EXPERIMENTS.md keeps
// its rows).
//
// Three quantities per run, all through the real wire codec: total
// bytes-on-wire, the history share of each message (encoded size minus the
// size of the same payload with its delta frame stripped), and the
// high-water live-state history footprint of any single process
// (rsm.StatsOf, sampled at every step).

const e17N = 5

// e17MsgsPerSlotCap bounds msgs/slot at the longest grid point: with quorum
// awareness carried across slots (internal/rsm aware.go) all but the first
// few slots decide in round 1, and a decided instance holds the next
// round's LEAD until somebody is heard there (rsm stepInstance), so such a
// slot costs one round of traffic, none of it to the sender itself (rsm
// loopback) — 67.0 measured at 64 slots; 78.7 with the self-sends counted,
// 117 when the round after the decision was still sent, 267 when every slot
// also paid its own SAW/ACK round trip.
const e17MsgsPerSlotCap = 75

var e17SlotsGrid = []int{4, 8, 16, 64}

// e17Meter wraps the log automaton with measurement taps. The substrate
// steps processes from independent goroutines on the concurrent backends,
// so both taps are atomics; they are per-unit, so the recorded numbers
// stay deterministic on sim at any engine worker count.
type e17Meter struct {
	model.Automaton
	msgs      atomic.Int64 // sends observed
	wireBytes atomic.Int64 // Σ encoded payload size over all sends
	histBytes atomic.Int64 // Σ history share: encoded minus history-free encoded
	peakHist  atomic.Int64 // high-water StatsOf().HistEntries of any process
}

func (a *e17Meter) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	var total, hist int64
	for _, snd := range sends {
		b, err := wire.EncodePayload(snd.Payload)
		if err != nil {
			continue
		}
		total += int64(len(b))
		if stripped := historyFree(snd.Payload); stripped != nil {
			if sb, err := wire.EncodePayload(stripped); err == nil {
				hist += int64(len(b) - len(sb))
			}
		}
	}
	a.msgs.Add(int64(len(sends)))
	a.wireBytes.Add(total)
	a.histBytes.Add(hist)
	atomicMax(&a.peakHist, int64(rsm.StatsOf(ns).HistEntries))
	return ns, sends
}

// historyFree strips the history freight — the whole (base, delta) frame —
// from a slot-wrapped payload, returning nil for payloads that carry none.
func historyFree(pl model.Payload) model.Payload {
	sp, ok := pl.(rsm.SlotPayload)
	if !ok {
		return nil
	}
	switch inner := sp.Inner.(type) {
	case consensus.LeadDeltaPayload:
		sp.Inner = inner.Plain()
	case consensus.ProposalDeltaPayload:
		sp.Inner = inner.Plain()
	default:
		return nil
	}
	return sp
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

var e17Spec = &Spec{
	ID:    "E17",
	Title: "Long-log scale: bytes-on-wire and live state of the per-process history store",
	Claim: "§1 motivation, run long enough to hurt: with retirement stalled " +
		"by a crash, unretired slot instances pile up with log length, but " +
		"the log holds one versioned history store per process and ships " +
		"O(delta) frames, so live state stays flat, history freight stays " +
		"near a byte per message, and incremental deltas dominate snapshot " +
		"fallbacks. A decided slot goes quiet once nobody can use its " +
		"messages, so msgs/slot does not grow with the number of unretired " +
		"instances; and a quorum acknowledged in one slot is already seen " +
		"in the next, so all but the first slots decide in round 1.",
	Columns: []string{"mode", "slots", "runs", "ok", "msgs/slot", "hist bytes/msg", "peak hist entries", "delta hits", "fallbacks"},
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
		u := UnitResult{Counted: true}
		slots, seed := cfg.Arg, cfg.Seed
		sub, err := sc.substrate()
		if err != nil {
			u.failf("%v", err)
			return u
		}
		pattern := model.NewFailurePattern(e17N)
		// One early crash stalls progress gossip at the crashed process's
		// last slot: instances above it never retire, so the live-instance
		// count — and anything kept per instance — grows with log length.
		pattern.SetCrash(model.ProcessID(e17N-1), 30)
		cmds := make([][]int, e17N)
		for p := range cmds {
			cmds[p] = []int{100*p + 1}
		}
		reg := obs.NewRegistry()
		sampler := rsm.SamplerForLog(pattern, 80, seed)
		meter := &e17Meter{Automaton: rsm.NewLog(cmds, slots).WithMetrics(reg).WithSampler(sampler)}
		budget := min(sc.MaxSteps*8, 400000)
		if !sub.Deterministic() && budget < 3_000_000 {
			// The concurrent substrates' shared clock ticks on idle spins
			// too (see runConsensus); StopWhenDecided keeps real cost low.
			budget = 3_000_000
		}
		res, err := sub.Run(context.Background(), meter, sampler, pattern, substrate.Options{
			Seed:            seed,
			MaxSteps:        budget,
			StopWhenDecided: true,
			Bus:             sc.Bus,
			Metrics:         sc.Metrics,
		})
		if err != nil || !res.Decided {
			u.failf("slots=%d seed=%d: err=%v filled=%v", slots, seed, err, res != nil && res.Decided)
			return u
		}
		var ref []int
		agree := true
		pattern.Correct().ForEach(func(p model.ProcessID) {
			entries := res.Config.States[p].(rsm.LogHolder).Entries()
			if ref == nil {
				ref = entries
				return
			}
			if len(entries) != len(ref) {
				agree = false
				return
			}
			for i := range ref {
				if entries[i] != ref[i] {
					agree = false
				}
			}
		})
		if !agree {
			u.failf("slots=%d seed=%d: correct logs diverged", slots, seed)
			return u
		}
		hits := int(reg.Counter("rsm.hist.delta_hits").Value())
		falls := int(reg.Counter("rsm.hist.full_fallbacks").Value())
		gaps := int(reg.Counter("rsm.hist.delta_gaps").Value())
		if gaps != 0 {
			u.failf("slots=%d seed=%d: %d delta gaps on a FIFO substrate", slots, seed, gaps)
			return u
		}
		u.OK = true
		u.Add("msgs", int(meter.msgs.Load()))
		u.Add("wire", int(meter.wireBytes.Load()))
		u.Add("histwire", int(meter.histBytes.Load()))
		u.Add("hist", int(meter.peakHist.Load()))
		u.Add("hits", hits)
		u.Add("falls", falls)
		// Fold the per-unit registry into the run-wide metrics registry
		// (commutative adds/maxes only, so dumps stay worker-count-free).
		if sc.Metrics != nil {
			sc.Metrics.Counter("rsm.hist.delta_hits").Add(int64(hits))
			sc.Metrics.Counter("rsm.hist.full_fallbacks").Add(int64(falls))
			sc.Metrics.Counter("rsm.hist.delta_gaps").Add(int64(gaps))
			sc.Metrics.Gauge("rsm.hist.store_bytes").Max(reg.Gauge("rsm.hist.store_bytes").Value())
			sc.Metrics.Gauge("rsm.hist.store_entries").Max(reg.Gauge("rsm.hist.store_entries").Value())
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		slots := g.Key.Arg
		// The mode column stays so the rows line up with the recorded
		// owned-mode baseline's.
		return []string{"shared", itoa(slots), itoa(g.Runs()), itoa(g.OKs()),
			avg(g.Sum("msgs")/slots, g.OKs()), avg(g.Sum("histwire"), g.Sum("msgs")),
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
		// entries and msgs/slot at both, history bytes per message at the
		// long one.
		short, long := gs[0], gs[len(gs)-1]
		peak := func(g Group) float64 { return float64(g.Sum("hist")) / float64(g.OKs()) }
		perSlot := func(g Group) float64 { return float64(g.Sum("msgs")) / float64(g.Key.Arg*g.OKs()) }
		freight := float64(long.Sum("histwire")) / float64(long.Sum("msgs"))
		t.Notes = append(t.Notes,
			fmt.Sprintf("history freight at %d slots: %.1f bytes/msg in delta frames (recorded owned-mode baseline: 4.2, a full history clone in every LEAD/PROP)",
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
		if freight > 1.5 {
			t.Pass = false
			t.Notes = append(t.Notes, "FAIL: history freight per message on long logs should stay under 1.5 bytes (owned mode paid 4.2)")
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
