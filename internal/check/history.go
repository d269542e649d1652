package check

import (
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// Sample is one point of a failure-detector history: process P's module —
// or, for an emulated detector, its output_p variable (§2.9) — held Val at
// time T.
type Sample struct {
	P   model.ProcessID
	T   model.Time
	Val model.FDValue
}

// History rebuilds the emulated history H′ of §2.9 from a run's event
// stream: H′(p, t) is the value of output_p at time t, for every process
// that has an output and every t in [0, end], in (t, p) order. The bus
// emits an obs.KindFDOutput event only when output_p may have changed — at
// t = 0 and after each step of p — so the value at t is the one p's latest
// event at or before t carries; a process without an event yet (nil
// output) has no sample, and a crashed process keeps its last value to the
// end. Events of other kinds are ignored.
//
// One process's events must be in time order, which every driver gives
// (one goroutine per process); events of different processes may
// interleave out of time order, as they do on the concurrent substrates,
// where a step takes its tick before it takes the bus lock.
//
// The per-step events alone are not this history: a completeness violation
// stays on the books until the tick before its owner steps again, and
// check.LastCompletenessViolation reports that time.
func History(events []obs.Event, end model.Time) []Sample {
	var byProc [][]obs.Event
	for _, ev := range events {
		if ev.Kind != obs.KindFDOutput {
			continue
		}
		for int(ev.P) >= len(byProc) {
			byProc = append(byProc, nil)
		}
		byProc[ev.P] = append(byProc[ev.P], ev)
	}
	out := make([]Sample, 0, (int(end)+1)*len(byProc))
	next := make([]int, len(byProc)) // per process: events at or before t consumed so far
	for t := model.Time(0); t <= end; t++ {
		for p, evs := range byProc {
			for next[p] < len(evs) && evs[next[p]].T <= t {
				next[p]++
			}
			if next[p] > 0 {
				out = append(out, Sample{P: model.ProcessID(p), T: t, Val: evs[next[p]-1].FD})
			}
		}
	}
	return out
}
