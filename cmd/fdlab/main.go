// Command fdlab prints a failure-detector history as a table — one row per
// time step, one column per process — and validates it against its
// specification. Useful for building intuition about what Ω/Σ/Σν/Σν+
// actually guarantee (and what adversarial histories are allowed to do
// before stabilization).
//
// Usage:
//
//	fdlab -d sigmanu -n 4 -crash 1:10,3:25 -stabilize 40 -until 60
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"nuconsensus"
	"nuconsensus/internal/check"
	"nuconsensus/internal/model"
)

func main() {
	var (
		det       = flag.String("d", "sigmanu", "detector: omega | sigma | sigmanu | sigmanuplus")
		n         = flag.Int("n", 4, "number of processes")
		crashSpec = flag.String("crash", "", "crashes as p:t pairs, e.g. 1:10,3:25")
		stabilize = flag.Int64("stabilize", 40, "stabilization time")
		until     = flag.Int64("until", 60, "print H(p, t) for t in [0, until]")
		every     = flag.Int64("every", 4, "print every k-th time step")
		seed      = flag.Int64("seed", 1, "history seed")
	)
	flag.Parse()

	pattern := nuconsensus.NewFailurePattern(*n)
	if *crashSpec != "" {
		for _, part := range strings.Split(*crashSpec, ",") {
			pt := strings.SplitN(strings.TrimSpace(part), ":", 2)
			if len(pt) != 2 {
				log.Fatalf("bad crash spec %q (want p:t)", part)
			}
			p, err1 := strconv.Atoi(pt[0])
			t, err2 := strconv.ParseInt(pt[1], 10, 64)
			if err1 != nil || err2 != nil {
				log.Fatalf("bad crash spec %q: %v %v", part, err1, err2)
			}
			pattern.SetCrash(nuconsensus.ProcessID(p), nuconsensus.Time(t))
		}
	}

	stab := nuconsensus.Time(*stabilize)
	var (
		history nuconsensus.History
		verify  func([]check.Sample) error
	)
	switch *det {
	case "omega":
		history = nuconsensus.Omega(pattern, stab, *seed)
		verify = func(s []check.Sample) error { return check.OmegaOutputs(s, pattern, stab) }
	case "sigma":
		history = nuconsensus.Sigma(pattern, stab, *seed)
		verify = func(s []check.Sample) error { return check.Sigma(s, pattern, stab) }
	case "sigmanu":
		history = nuconsensus.SigmaNu(pattern, stab, *seed)
		verify = func(s []check.Sample) error { return check.SigmaNu(s, pattern, stab) }
	case "sigmanuplus":
		history = nuconsensus.SigmaNuPlus(pattern, stab, *seed)
		verify = func(s []check.Sample) error { return check.SigmaNuPlus(s, pattern, stab) }
	default:
		log.Fatalf("unknown detector %q", *det)
	}

	fmt.Printf("detector %s over %v, stabilizes at t=%d\n\n", *det, pattern, stab)
	fmt.Printf("%6s", "t")
	for p := 0; p < *n; p++ {
		fmt.Printf("  %-16s", fmt.Sprintf("p%d", p))
	}
	fmt.Println()

	var samples []check.Sample
	for t := nuconsensus.Time(0); t <= nuconsensus.Time(*until); t++ {
		row := t%nuconsensus.Time(*every) == 0 || t == stab
		if row {
			fmt.Printf("%6d", t)
		}
		for p := 0; p < *n; p++ {
			pid := nuconsensus.ProcessID(p)
			if pattern.Crashed(pid, t) {
				if row {
					fmt.Printf("  %-16s", "†")
				}
				continue
			}
			v := history.Output(pid, t)
			samples = append(samples, check.Sample{P: pid, T: t, Val: v})
			if row {
				fmt.Printf("  %-16s", strip(v))
			}
		}
		if row {
			fmt.Println()
		}
	}

	fmt.Println()
	if err := verify(samples); err != nil {
		fmt.Printf("SPEC VIOLATED: %v\n", err)
		return
	}
	fmt.Printf("all %d samples satisfy the %s specification\n", len(samples), *det)
}

// strip renders a value compactly for the table.
func strip(v model.FDValue) string {
	s := v.String()
	s = strings.TrimPrefix(s, "Q=")
	s = strings.TrimPrefix(s, "Ω=")
	return s
}
