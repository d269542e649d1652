// Package nuconsensus is a Go implementation of the results of Eisler,
// Hadzilacos and Toueg, "The weakest failure detector to solve nonuniform
// consensus" (PODC 2005; Distributed Computing 19(5), 2007).
//
// The paper proves that (Ω, Σν) — the leader detector paired with the
// nonuniform quorum detector — is the weakest failure detector with which
// asynchronous message-passing processes can solve nonuniform consensus in
// any environment (any number and timing of crashes). This package exposes
// the constructive halves of that proof as runnable artifacts:
//
//   - ANuc: the paper's consensus algorithm A_nuc (Figs. 4–5), which solves
//     nonuniform consensus using (Ω, Σν+) — sufficiency (Theorem 6.27);
//   - BoostSigmaNu: T_{Σν→Σν+} (Fig. 3), which upgrades Σν to Σν+ — so
//     (Ω, Σν) suffices end-to-end (Theorem 6.28);
//   - ExtractSigmaNu: T_{D→Σν} (Fig. 2), the DAG/simulation emulation at
//     the heart of necessity (Theorem 5.4), which also emulates Σ when the
//     given detector solves uniform consensus (Theorem 5.8);
//   - MR*: the Mostéfaoui–Raynal leader-based baselines the paper builds
//     on, including the naive Σν adaptation whose contamination failure
//     (§6.3) motivates A_nuc's distrust and quorum-awareness machinery;
//   - ScratchSigma / Partition: both directions of Theorem 7.1 — Σ is
//     implementable from scratch when a majority is correct, and provably
//     not emulatable from (Ω, Σν) otherwise.
//
// Three substrates run the same algorithms: a deterministic, model-faithful
// step simulator (Simulate), a goroutine/channel asynchronous runtime
// (RunCluster) and a TCP mesh on loopback (RunTCP). Failure detectors are histories over a failure pattern
// (Omega, Sigma, SigmaNu, SigmaNuPlus, Pair, and adversarial variants), and
// spec checkers (Check*) verify both native and emulated detectors.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// per-theorem reproduction tables.
package nuconsensus

import (
	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/transform"
)

// Re-exported core types. ProcessID identifies a process in Π = {0..n−1};
// ProcessSet is a bitset of processes; Time is the discrete global clock;
// Sample is one point {P, T, Val} of a failure-detector history (the
// element of SimResult.EmulatedOutputs).
type (
	ProcessID      = model.ProcessID
	ProcessSet     = model.ProcessSet
	Time           = model.Time
	FailurePattern = model.FailurePattern
	Automaton      = model.Automaton
	History        = model.History
	FDValue        = model.FDValue
	Sample         = check.Sample
)

// NewFailurePattern returns the failure-free pattern over n processes;
// mark crashes with SetCrash.
func NewFailurePattern(n int) *FailurePattern { return model.NewFailurePattern(n) }

// Crashes returns a failure pattern with the given crash times.
func Crashes(n int, at map[ProcessID]Time) *FailurePattern {
	return model.PatternFromCrashes(n, at)
}

// SetOf builds a process set.
func SetOf(ps ...ProcessID) ProcessSet { return model.SetOf(ps...) }

// ANuc returns the paper's algorithm A_nuc for len(proposals) processes,
// where process p proposes proposals[p]. Drive it with a PairDetector of
// Omega and SigmaNuPlus histories (or an emulated Σν+; see BoostedANuc).
func ANuc(proposals []int) Automaton { return consensus.NewANuc(proposals) }

// MRMajority returns the Mostéfaoui–Raynal algorithm with majority waits.
// It solves uniform consensus with Ω when a majority of processes is
// correct — and blocks otherwise.
func MRMajority(proposals []int) Automaton { return consensus.NewMRMajority(proposals) }

// MRSigma returns MR with Σ quorums: uniform consensus with (Ω, Σ) in any
// environment.
func MRSigma(proposals []int) Automaton { return consensus.NewMRSigma(proposals) }

// MRNaiveNu returns the naive Σν adaptation of MR. It is NOT a correct
// nonuniform consensus algorithm: §6.3's contamination scenario makes two
// correct processes decide differently (see examples/contamination).
func MRNaiveNu(proposals []int) Automaton { return consensus.NewMRNaiveNu(proposals) }

// BoostSigmaNu returns the transformer T_{Σν→Σν+} (Theorem 6.7) for n
// processes. Its states expose the emulated Σν+ through their output
// variable.
func BoostSigmaNu(n int) Automaton { return transform.NewSigmaNuPlusTransformer(n) }

// BoostedANuc composes T_{Σν→Σν+} with A_nuc (Theorem 6.28): the returned
// automaton solves nonuniform consensus driven by (Ω, Σν) pair histories.
func BoostedANuc(proposals []int) Automaton {
	return transform.NewComposed(
		transform.NewSigmaNuPlusTransformer(len(proposals)),
		consensus.NewANuc(proposals),
	)
}

// ExtractSigmaNu returns the extraction algorithm T_{D→Σν} (Theorem 5.4)
// for n processes. target builds, for a given proposal assignment, the
// consensus algorithm A that uses the ambient failure detector D; the
// extractor simulates A's schedules over a DAG of D-samples. searchEvery
// throttles the simulation search (1 = every step, as in the paper).
func ExtractSigmaNu(n int, target func(proposals []int) Automaton, searchEvery int) Automaton {
	return transform.NewSigmaNuExtractor(n, func(ps []int) model.Automaton { return target(ps) }, searchEvery)
}

// ScratchSigma returns the from-scratch Σ implementation for environments
// with at most t < n/2 crashes (Theorem 7.1, IF).
func ScratchSigma(n, t int) Automaton { return transform.NewScratchSigma(n, t) }

// Omega returns a canonical Ω history for pattern f: arbitrary outputs
// before stabilize, the smallest correct process afterwards.
func Omega(f *FailurePattern, stabilize Time, seed int64) History {
	return fd.NewOmega(f, stabilize, seed)
}

// Sigma returns a canonical Σ history (uniform intersection).
func Sigma(f *FailurePattern, stabilize Time, seed int64) History {
	return fd.NewSigma(f, stabilize, seed)
}

// SigmaNu returns a canonical adversarial Σν history: correct modules
// behave like Σ, faulty modules emit junk quorums — the freedom Σν grants.
func SigmaNu(f *FailurePattern, stabilize Time, seed int64) History {
	return fd.NewSigmaNu(f, stabilize, seed)
}

// SigmaNuPlus returns a canonical Σν+ history.
func SigmaNuPlus(f *FailurePattern, stabilize Time, seed int64) History {
	return fd.NewSigmaNuPlus(f, stabilize, seed)
}

// Pair combines two histories into the pair detector (D, D') of §2.3.
func Pair(first, second History) History {
	return fd.PairHistory{First: first, Second: second}
}

// Decision returns the value decided by process p in the final states, if
// any.
func Decision(states []model.State, p ProcessID) (int, bool) {
	return model.DecisionOf(states[int(p)])
}

// CheckNonuniformConsensus verifies termination, validity and nonuniform
// agreement of a finished execution's final configuration.
func CheckNonuniformConsensus(c *model.Configuration, f *FailurePattern) error {
	return check.OutcomeFromConfig(c).NonuniformConsensus(f)
}

// CheckUniformConsensus verifies termination, validity and uniform
// agreement.
func CheckUniformConsensus(c *model.Configuration, f *FailurePattern) error {
	return check.OutcomeFromConfig(c).UniformConsensus(f)
}

// ANucAblated returns A_nuc with parts of its machinery disabled, for the
// ablation experiments (Q5): noDistrust removes the distrust rule of
// Fig. 5 lines 51–53; noSeenGate removes the seen_p[Q_p] < k_p decision
// gate of Fig. 4 line 30. Only the unablated algorithm is a correct
// nonuniform consensus algorithm.
func ANucAblated(proposals []int, noDistrust, noSeenGate bool) Automaton {
	return consensus.NewANucAblated(proposals, consensus.Ablation{
		NoDistrust: noDistrust,
		NoSeenGate: noSeenGate,
	})
}

// HeartbeatOmega returns the from-scratch heartbeat implementation of Ω
// (internal/hb): correct under partial synchrony — a fair or eventually
// timely scheduler — with no failure-detector oracle at all. every is the
// heartbeat period in own steps and timeout the initial adaptive suspicion
// timeout (zeros pick defaults).
func HeartbeatOmega(n, every, timeout int) Automaton {
	return hb.NewOmega(n, every, timeout)
}

// OracleFreeANuc composes the heartbeat Ω, the from-scratch Σν+ and A_nuc
// into a fully failure-detector-free nonuniform consensus algorithm for
// systems with a correct majority (t < n/2) under partial synchrony. Drive
// it with any history (the ambient failure detector is ignored); the
// assembled (Ω, Σν+) pair the consumer sees is exposed through the states'
// emulated output for validation.
func OracleFreeANuc(proposals []int, t int) Automaton {
	n := len(proposals)
	return transform.NewOracleFree(
		hb.NewOmega(n, 0, 0),
		transform.NewScratchSigmaNuPlus(n, t),
		consensus.NewANuc(proposals),
	)
}

// HeartbeatSuspector returns the ◇P view of the heartbeat detector: it
// emits the set of currently suspected processes, which under partial
// synchrony eventually equals exactly the crashed set at every correct
// process (eventually perfect).
func HeartbeatSuspector(n, every, timeout int) Automaton {
	return hb.NewSuspector(n, every, timeout)
}

// ReplicatedLog returns the replicated-log automaton of internal/rsm: one
// A_nuc instance per log slot, command forwarding, progress-based instance
// retirement, and one quorum-history store per process whose additions
// travel as deltas on LEAD/PROP. Drive it like A_nuc, with (Ω, Σν+) pair histories
// (PairForANuc); the execution "decides" when every correct replica's log
// holds slots entries.
func ReplicatedLog(commands [][]int, slots int) Automaton {
	return rsm.NewLog(commands, slots)
}

// LogEntries extracts a replica's decided log from final states.
func LogEntries(states []model.State, p ProcessID) ([]int, bool) {
	lh, ok := states[int(p)].(rsm.LogHolder)
	if !ok {
		return nil, false
	}
	return lh.Entries(), true
}

// PairForANuc builds the canonical (Ω, Σν+) pair history A_nuc and the
// replicated log consume.
func PairForANuc(f *FailurePattern, stabilize Time, seed int64) History {
	return Pair(Omega(f, stabilize, seed), SigmaNuPlus(f, stabilize, seed))
}

// ChandraToueg returns the classic Chandra–Toueg rotating-coordinator
// algorithm (the paper's reference [2]): uniform consensus from an
// eventually-strong suspicion detector (◇S) with a correct majority. Drive
// it with Suspicion histories or the heartbeat suspector.
func ChandraToueg(proposals []int) Automaton { return consensus.NewCT(proposals) }

// Suspicion returns a canonical ◇P/◇S suspicion history: arbitrary
// suspicion before stabilize, exactly the faulty set afterwards.
func Suspicion(f *FailurePattern, stabilize Time, seed int64) History {
	return fd.NewSuspicion(f, stabilize, seed)
}

// OracleFreeCT composes the heartbeat ◇P with Chandra–Toueg: a fully
// failure-detector-free *uniform* consensus stack for majority-correct
// systems under partial synchrony (the uniform sibling of OracleFreeANuc).
func OracleFreeCT(proposals []int) Automaton {
	n := len(proposals)
	return transform.NewFeed(
		hb.NewSuspector(n, 0, 0),
		consensus.NewCT(proposals),
		func(pl model.Payload) bool { _, ok := pl.(hb.HeartbeatPayload); return ok },
	)
}
