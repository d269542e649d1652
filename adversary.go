package nuconsensus

import (
	"nuconsensus/internal/experiments"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/transform"
)

// AlternatingOmega returns the adversarial Ω history of the contamination
// scenario (§6.3): correct processes see the real leader and the misleader
// in alternating windows of period ticks until stabilize, then the leader
// forever; the (faulty) misleader's own module always outputs the
// misleader, so it keeps — and keeps deciding on — its own stale estimate.
// This is a legal Ω history: the spec constrains only the eventual outputs
// at correct processes.
func AlternatingOmega(misleader, leader ProcessID, period, stabilize Time) History {
	return &fd.AlternatingOmega{
		Misleader: misleader,
		Leader:    leader,
		Period:    period,
		Stabilize: stabilize,
		SelfLoyal: true,
	}
}

// ThresholdQuorum returns the (n−t)-threshold quorum algorithm without the
// t < n/2 restriction — the natural but doomed candidate for emulating Σ
// in environments where half or more processes may crash (Theorem 7.1,
// ONLY-IF).
func ThresholdQuorum(n, t int) Automaton { return transform.NewThresholdQuorum(n, t) }

// PassthroughQuorum returns the identity quorum "transformation" (output
// the last sampled quorum), the second doomed candidate of the partition
// experiment.
func PassthroughQuorum(n int) Automaton { return transform.NewPassthroughQuorum(n) }

// PartitionOutcome reports the result of staging Theorem 7.1's partition
// argument against a candidate Σ-emulation algorithm.
type PartitionOutcome = experiments.PartitionOutcome

// RunPartition stages the two runs R and R′ of Theorem 7.1 (ONLY-IF)
// against a candidate algorithm over n processes with fault bound t ≥ n/2:
// in R the second half of the processes crashes immediately and the
// candidate must output a quorum A' inside the first half; in R′ the first
// half crashes just after doing exactly the same thing and the candidate
// must output a quorum B' inside the second half. A' ∩ B' = ∅ exhibits the
// Σ intersection violation that dooms every candidate.
func RunPartition(name string, candidate Automaton, n, t int) PartitionOutcome {
	return experiments.RunPartition(name, candidate, n, t)
}
