package main

import (
	"fmt"
	"time"
)

// ladderRates are the write rates (per second) of the opt-in ladder; reads
// stay at steady_mix's 300/s.
var ladderRates = []int{50, 100, 150, 200, 300}

// runLadder replays steady_mix's open loop at each ladder rate for 10 s
// against a fresh cluster and reports the knee: the highest rate whose
// write p95 meets the latency limit with no growing backlog (the last
// third's median no more than twice the first third's). Not part of the
// driver contract; README.md quotes its result.
func runLadder(seed int64) error {
	if err := inRepoRoot(); err != nil {
		return err
	}
	printHeader("steady_mix ladder", seed, 10, 0)
	fmt.Printf("%-10s %12s %12s %12s %10s %8s  %s\n", "writes/s", "write_p50_ms", "write_p95_ms", "lin_p95_ms", "late_p99us", "failed", "verdict")
	knee := 0
	for _, rate := range ladderRates {
		sp := servedSpecs[wSteadyMix]
		sp.writeRate = rate
		pass, err := runServed(sp, seed, 10*time.Second, false)
		if err != nil {
			return err
		}
		l := collectLatencies(pass)
		p50, p95 := percentile(l.all[kindWrite], 0.50), tail(l.all[kindWrite], 0.95)
		first, last := thirdsP50(pass)
		verdict := "ok"
		switch {
		case pass.verdict.failed > 0:
			verdict = "failed operations"
		case last > 2*first:
			verdict = fmt.Sprintf("backlog grows (p50 %.1f -> %.1f ms)", first, last)
		case p95 > sloWriteMS:
			verdict = fmt.Sprintf("p95 above %.0f ms", sloWriteMS)
		default:
			knee = rate
		}
		fmt.Printf("%-10d %12.3f %12.3f %12.3f %10.0f %8d  %s\n", rate, p50, p95, tail(l.all[kindLin], 0.95), tail(l.late, 0.99), pass.verdict.failed, verdict)
	}
	fmt.Printf("knee_rate_ops_s %d 1/s (highest ladder rate meeting write_p95_ms <= %.0f with no growing backlog)\n", knee, sloWriteMS)
	return nil
}

// thirdsP50 returns the median write latency (ms) of the writes due in the
// first and in the last third of the measured window.
func thirdsP50(p *servedPass) (first, last float64) {
	var a, b []float64
	third := (p.to - p.from) / 3
	for _, s := range p.sessions {
		s.mu.Lock()
		for i := range s.writes {
			w := &s.writes[i]
			if !w.measured || !w.acked() {
				continue
			}
			switch ms := float64(w.recv-w.due) / 1e6; {
			case w.due < p.from+third:
				a = append(a, ms)
			case w.due >= p.to-third:
				b = append(b, ms)
			}
		}
		s.mu.Unlock()
	}
	return median(a), median(b)
}
