// Benchmarks: one per experiment table/figure of EXPERIMENTS.md (Q4's
// hunt pair is E6's workload, so BenchmarkE6 covers both). Each
// benchmark runs the experiment's core workload once per iteration at a
// representative configuration and reports domain metrics (steps, messages,
// rounds, convergence times) alongside ns/op. Regenerate the full tables
// with `go run ./cmd/experiments`.
package nuconsensus_test

import (
	"context"
	"fmt"
	"testing"

	"nuconsensus"
	"nuconsensus/internal/experiments"
	"nuconsensus/internal/explore"
	"nuconsensus/internal/fd"
)

// quorumOf projects an emulated output to its quorum component.
func quorumOf(v nuconsensus.FDValue) (nuconsensus.ProcessSet, bool) { return fd.QuorumOf(v) }

// crashyPattern crashes the f highest-numbered processes at staggered times.
func crashyPattern(n, f int) *nuconsensus.FailurePattern {
	pattern := nuconsensus.NewFailurePattern(n)
	for i := 0; i < f; i++ {
		pattern.SetCrash(nuconsensus.ProcessID(n-1-i), nuconsensus.Time(20+10*i))
	}
	return pattern
}

func altProposals(n int) []int {
	props := make([]int, n)
	for i := range props {
		props[i] = i % 2
	}
	return props
}

// benchConsensus runs one consensus execution per iteration and reports
// steps and messages per decision.
func benchConsensus(b *testing.B, build func() nuconsensus.Automaton, pattern *nuconsensus.FailurePattern, hist nuconsensus.History, maxSteps int) {
	b.Helper()
	var steps, msgs int
	for i := 0; i < b.N; i++ {
		res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton:       build(),
			Pattern:         pattern,
			History:         hist,
			Seed:            int64(i + 1),
			MaxSteps:        maxSteps,
			StopWhenDecided: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Decided {
			b.Fatalf("iteration %d: no decision in %d steps", i, res.Steps)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// BenchmarkE1 — Table E1: A_nuc with (Ω, Σν+), across n and minority/
// super-majority failures.
func BenchmarkE1(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		for _, f := range []int{(n - 1) / 2, n - 1} {
			b.Run(fmt.Sprintf("n=%d/f=%d", n, f), func(b *testing.B) {
				pattern := crashyPattern(n, f)
				hist := nuconsensus.Pair(
					nuconsensus.Omega(pattern, 100, 1),
					nuconsensus.SigmaNuPlus(pattern, 100, 1),
				)
				benchConsensus(b, func() nuconsensus.Automaton {
					return nuconsensus.ANuc(altProposals(n))
				}, pattern, hist, 50000)
			})
		}
	}
}

// BenchmarkE2 — Table E2: the end-to-end (Ω, Σν) stack, T_{Σν→Σν+}∘A_nuc.
func BenchmarkE2(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pattern := crashyPattern(n, 1)
			hist := nuconsensus.Pair(
				nuconsensus.Omega(pattern, 100, 1),
				nuconsensus.SigmaNu(pattern, 100, 1),
			)
			benchConsensus(b, func() nuconsensus.Automaton {
				return nuconsensus.BoostedANuc(altProposals(n))
			}, pattern, hist, 8000)
		})
	}
}

// BenchmarkE3 — Table E3: one T_{Σν→Σν+} emulation run.
func BenchmarkE3(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pattern := crashyPattern(n, 1)
			hist := nuconsensus.SigmaNu(pattern, 90, 1)
			for i := 0; i < b.N; i++ {
				res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
					Automaton: nuconsensus.BoostSigmaNu(n),
					Pattern:   pattern,
					History:   hist,
					Seed:      int64(i + 1),
					MaxSteps:  500,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := nuconsensus.CheckEmulatedSigmaNuPlus(res, pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4 — Table E4: one T_{D→Σν} extraction run with D = (Ω, Σν+),
// A = A_nuc.
func BenchmarkE4(b *testing.B) {
	n := 3
	pattern := crashyPattern(n, 1)
	hist := nuconsensus.Pair(
		nuconsensus.Omega(pattern, 40, 1),
		nuconsensus.SigmaNuPlus(pattern, 40, 1),
	)
	for i := 0; i < b.N; i++ {
		res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.ExtractSigmaNu(n,
				func(props []int) nuconsensus.Automaton { return nuconsensus.ANuc(props) }, 1),
			Pattern:  pattern,
			History:  hist,
			Seed:     int64(i + 1),
			MaxSteps: 500,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := nuconsensus.CheckEmulatedSigmaNu(res, pattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5 — Table E5: extraction of full Σ from D = (Ω, Σ), A = MR-Σ.
func BenchmarkE5(b *testing.B) {
	n := 3
	pattern := crashyPattern(n, 1)
	hist := nuconsensus.Pair(
		nuconsensus.Omega(pattern, 40, 1),
		nuconsensus.Sigma(pattern, 40, 1),
	)
	for i := 0; i < b.N; i++ {
		res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.ExtractSigmaNu(n,
				func(props []int) nuconsensus.Automaton { return nuconsensus.MRSigma(props) }, 1),
			Pattern:  pattern,
			History:  hist,
			Seed:     int64(i + 1),
			MaxSteps: 500,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := nuconsensus.CheckEmulatedSigma(res, pattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6 — Table E6: one adversarial execution of the naive algorithm
// (which may or may not get contaminated at a given seed) vs the boosted
// A_nuc on the same history.
func BenchmarkE6(b *testing.B) {
	pattern := nuconsensus.Crashes(3, map[nuconsensus.ProcessID]nuconsensus.Time{2: 320})
	hist := func(seed int64) nuconsensus.History {
		return nuconsensus.Pair(
			nuconsensus.AlternatingOmega(2, 0, 40, 280),
			nuconsensus.SigmaNu(pattern, 280, seed),
		)
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nuconsensus.Simulate(nuconsensus.SimOptions{
				Automaton:       nuconsensus.MRNaiveNu([]int{0, 0, 1}),
				Pattern:         pattern,
				History:         hist(int64(i + 1)),
				Seed:            int64(i + 1),
				MaxSteps:        20000,
				StopWhenDecided: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("anuc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
				Automaton:       nuconsensus.BoostedANuc([]int{0, 0, 1}),
				Pattern:         pattern,
				History:         hist(int64(i + 1)),
				Seed:            int64(i + 1),
				MaxSteps:        8000,
				StopWhenDecided: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := nuconsensus.CheckNonuniformConsensus(res.Config, pattern); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7 — Table E7: staging both partition runs against a candidate.
func BenchmarkE7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := nuconsensus.RunPartition("threshold", nuconsensus.ThresholdQuorum(4, 2), 4, 2)
		if o.Err != nil || !o.Disjoint {
			b.Fatalf("partition failed: %+v", o)
		}
	}
}

// BenchmarkE8 — Table E8: one from-scratch Σ emulation run.
func BenchmarkE8(b *testing.B) {
	for _, n := range []int{5, 9} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := (n - 1) / 2
			pattern := crashyPattern(n, t)
			for i := 0; i < b.N; i++ {
				res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
					Automaton: nuconsensus.ScratchSigma(n, t),
					Pattern:   pattern,
					History:   nuconsensus.Pair(nuconsensus.Omega(pattern, 0, 1), nuconsensus.Sigma(pattern, 0, 1)),
					Seed:      int64(i + 1),
					MaxSteps:  800,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := nuconsensus.CheckEmulatedSigma(res, pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9 — Table E9: the run-merging experiment (Lemma 2.2).
func BenchmarkE9(b *testing.B) {
	sc := experiments.Scale{Seeds: 1, MaxSteps: 1000}
	for i := 0; i < b.N; i++ {
		if tb := experiments.Registry["E9"].Run(sc); !tb.Pass {
			b.Fatalf("E9 failed:\n%s", tb.Render())
		}
	}
}

// BenchmarkE10 — Table E10: one A_DAG execution plus the §4 structure checks.
func BenchmarkE10(b *testing.B) {
	sc := experiments.Scale{Seeds: 1, MaxSteps: 1000}
	for i := 0; i < b.N; i++ {
		if tb := experiments.Registry["E10"].Run(sc); !tb.Pass {
			b.Fatalf("E10 failed:\n%s", tb.Render())
		}
	}
}

// BenchmarkAllParallel runs a representative slice of the experiment suite
// through the worker-pool engine at several pool sizes. Comparing the
// workers=1 and workers=4 sub-benchmarks gives the parallel speedup on the
// host; the rendered output is identical at every size, so this measures
// scheduling only.
func BenchmarkAllParallel(b *testing.B) {
	ids := []string{"E1", "E7", "E8", "E9", "E10", "E13", "E15", "Q1", "Q2"}
	sc := experiments.Scale{Seeds: 2, MaxSteps: 20000}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := experiments.RunIDs(context.Background(), ids, sc, experiments.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, tb := range tables {
					if !tb.Pass {
						b.Fatalf("%s failed:\n%s", tb.ID, tb.Render())
					}
				}
			}
		})
	}
}

// BenchmarkQ1 — Figure Q1: decision latency of the three algorithms at
// n = 7 with minority failures.
func BenchmarkQ1(b *testing.B) {
	n := 7
	pattern := crashyPattern(n, (n-1)/2)
	pairPlus := nuconsensus.Pair(nuconsensus.Omega(pattern, 100, 1), nuconsensus.SigmaNuPlus(pattern, 100, 1))
	pairSigma := nuconsensus.Pair(nuconsensus.Omega(pattern, 100, 1), nuconsensus.Sigma(pattern, 100, 1))
	b.Run("anuc", func(b *testing.B) {
		benchConsensus(b, func() nuconsensus.Automaton { return nuconsensus.ANuc(altProposals(n)) }, pattern, pairPlus, 50000)
	})
	b.Run("mr-majority", func(b *testing.B) {
		benchConsensus(b, func() nuconsensus.Automaton { return nuconsensus.MRMajority(altProposals(n)) }, pattern, pairSigma, 50000)
	})
	b.Run("mr-sigma", func(b *testing.B) {
		benchConsensus(b, func() nuconsensus.Automaton { return nuconsensus.MRSigma(altProposals(n)) }, pattern, pairSigma, 50000)
	})
}

// BenchmarkQ2 — Figure Q2: message-kind profile of a decided A_nuc run
// (LEAD/REP/PROP/SAW/ACK), reported as metrics.
func BenchmarkQ2(b *testing.B) {
	n := 5
	pattern := crashyPattern(n, 2)
	hist := nuconsensus.Pair(nuconsensus.Omega(pattern, 100, 1), nuconsensus.SigmaNuPlus(pattern, 100, 1))
	kinds := map[string]int{}
	for i := 0; i < b.N; i++ {
		res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton:       nuconsensus.ANuc(altProposals(n)),
			Pattern:         pattern,
			History:         hist,
			Seed:            int64(i + 1),
			MaxSteps:        50000,
			StopWhenDecided: true,
		})
		if err != nil || !res.Decided {
			b.Fatalf("run failed: %v", err)
		}
		for k, v := range res.SentKinds {
			kinds[k] += v
		}
	}
	for _, k := range []string{"LEAD", "REP", "PROP", "SAW", "ACK"} {
		b.ReportMetric(float64(kinds[k])/float64(b.N), k+"/op")
	}
}

// BenchmarkQ3 — Figure Q3: extraction convergence; reports the time of the
// first correct-only emitted quorum.
func BenchmarkQ3(b *testing.B) {
	n := 3
	pattern := crashyPattern(n, 1)
	hist := nuconsensus.Pair(nuconsensus.Omega(pattern, 40, 1), nuconsensus.SigmaNuPlus(pattern, 40, 1))
	var first float64
	for i := 0; i < b.N; i++ {
		res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.ExtractSigmaNu(n,
				func(props []int) nuconsensus.Automaton { return nuconsensus.ANuc(props) }, 1),
			Pattern:  pattern,
			History:  hist,
			Seed:     int64(i + 1),
			MaxSteps: 700,
		})
		if err != nil {
			b.Fatal(err)
		}
		correct := pattern.Correct()
		for _, s := range res.EmulatedOutputs {
			q, _ := quorumOf(s.Val)
			if correct.Has(s.P) && q.SubsetOf(correct) {
				first += float64(s.T)
				break
			}
		}
	}
	b.ReportMetric(first/float64(b.N), "first-correct-t/op")
}

// BenchmarkQ5 — Figure Q5: the fully ablated A_nuc under the adversary.
func BenchmarkQ5(b *testing.B) {
	pattern := nuconsensus.Crashes(3, map[nuconsensus.ProcessID]nuconsensus.Time{2: 320})
	for i := 0; i < b.N; i++ {
		if _, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.ANucAblated([]int{0, 0, 1}, true, true),
			Pattern:   pattern,
			History: nuconsensus.Pair(
				nuconsensus.AlternatingOmega(2, 0, 40, 280),
				nuconsensus.SigmaNuPlus(pattern, 280, int64(i+1)),
			),
			Seed:            int64(i + 1),
			MaxSteps:        20000,
			StopWhenDecided: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11 — Table E11: one heartbeat-Ω emulation run under partial
// synchrony.
func BenchmarkE11(b *testing.B) {
	n := 5
	pattern := crashyPattern(n, 2)
	for i := 0; i < b.N; i++ {
		if _, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.HeartbeatOmega(n, 0, 0),
			Pattern:   pattern,
			Seed:      int64(i + 1),
			GST:       300,
			MaxSteps:  2500,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12 — Table E12: one oracle-free consensus run (heartbeat Ω +
// from-scratch Σν+ + A_nuc) under partial synchrony.
func BenchmarkE12(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tf := (n - 1) / 2
			pattern := crashyPattern(n, tf)
			benchConsensus(b, func() nuconsensus.Automaton {
				return nuconsensus.OracleFreeANuc(altProposals(n), tf)
			}, pattern, nil, 60000)
		})
	}
}

// BenchmarkE13 — Table E13: one ◇P heartbeat-suspicion run under partial
// synchrony.
func BenchmarkE13(b *testing.B) {
	pattern := crashyPattern(5, 2)
	for i := 0; i < b.N; i++ {
		if _, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.HeartbeatSuspector(5, 0, 0),
			Pattern:   pattern,
			Seed:      int64(i + 1),
			GST:       300,
			MaxSteps:  2500,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14 — Table E14: one A_nuc run under the faulty-divergence
// adversary (the nonuniform/uniform gap).
func BenchmarkE14(b *testing.B) {
	pattern := nuconsensus.Crashes(3, map[nuconsensus.ProcessID]nuconsensus.Time{2: 150})
	hist := nuconsensus.Pair(nuconsensus.Omega(pattern, 200, 1), nuconsensus.SigmaNuPlus(pattern, 200, 1))
	benchConsensus(b, func() nuconsensus.Automaton {
		return nuconsensus.ANuc([]int{0, 0, 1})
	}, pattern, hist, 30000)
}

// BenchmarkQ6 — Figure Q6: one extraction run per path strategy.
func BenchmarkQ6(b *testing.B) {
	n := 3
	pattern := crashyPattern(n, 1)
	hist := nuconsensus.Pair(nuconsensus.Omega(pattern, 40, 1), nuconsensus.SigmaNuPlus(pattern, 40, 1))
	for i := 0; i < b.N; i++ {
		if _, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton: nuconsensus.ExtractSigmaNu(n,
				func(props []int) nuconsensus.Automaton { return nuconsensus.ANuc(props) }, 1),
			Pattern:  pattern,
			History:  hist,
			Seed:     int64(i + 1),
			MaxSteps: 700,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15 — Table E15: one Chandra–Toueg decision with ◇S.
func BenchmarkE15(b *testing.B) {
	pattern := crashyPattern(5, 2)
	hist := nuconsensus.Suspicion(pattern, 90, 1)
	benchConsensus(b, func() nuconsensus.Automaton {
		return nuconsensus.ChandraToueg(altProposals(5))
	}, pattern, hist, 30000)
}

// BenchmarkExploreFrontier — Table E16: one bounded exploration of the
// failure-free A_nuc verification scenario (the model checker's level-
// synchronized frontier is the workload: expand, fingerprint, merge,
// materialize). Reports unique states and executed edges per op.
func BenchmarkExploreFrontier(b *testing.B) {
	var last explore.Result
	benchOp(b, exploreFrontierOp(&last))
	b.ReportMetric(float64(last.States), "states/op")
	b.ReportMetric(float64(last.Edges), "edges/op")
}

// exploreFrontierOp runs one bound-5 exploration per call and keeps its
// result in *last.
func exploreFrontierOp(last *explore.Result) hotOp {
	return func(tb testing.TB) func() {
		o := explore.VerifyANuc(3, 0)[0].Opts
		o.Bound = 5
		return func() {
			res, err := explore.Explore(o)
			if err != nil {
				tb.Fatal(err)
			}
			*last = *res
		}
	}
}
