// Package consensus implements the paper's consensus algorithms as model
// automata:
//
//   - ANuc — the core contribution: algorithm A_nuc of §6.3 (Figs. 4–5),
//     which solves nonuniform consensus using (Ω, Σν+) in any environment
//     (Theorem 6.27);
//   - MR — the Mostéfaoui–Raynal leader-based algorithm the paper builds
//     on, in its three variants: majorities (uniform consensus with a
//     correct majority), Σ quorums (uniform consensus in any environment,
//     footnote 5), and the *naive* Σν-quorum adaptation that §6.3 shows is
//     contaminated and violates nonuniform agreement.
//
// Every automaton follows the paper's step discipline: the blocking waits
// of the pseudocode become phases, one wait-iteration (one failure-detector
// query) per atomic step, with the straight-line code between waits
// executing in the step whose wait completed.
package consensus

import (
	"fmt"

	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
)

// Unknown stands for the special proposal value "?" of the third phase.
// Payloads encode it with HasV = false.
const Unknown = -1

// LeadPayload is the leader message (LEAD, k, x, H) of the first phase
// (Fig. 4 line 15). Hist is nil for MR variants, which carry no quorum
// histories.
type LeadPayload struct {
	K    int
	V    int
	Hist quorum.Histories // cloned at send; nil for MR
}

// Kind implements model.Payload.
func (LeadPayload) Kind() string { return "LEAD" }

// String implements model.Payload.
func (m LeadPayload) String() string { return fmt.Sprintf("LEAD(k=%d,v=%d)", m.K, m.V) }

// ReportPayload is the report message (REP, k, x) of the second phase
// (Fig. 4 line 19).
type ReportPayload struct {
	K int
	V int
}

// Kind implements model.Payload.
func (ReportPayload) Kind() string { return "REP" }

// String implements model.Payload.
func (m ReportPayload) String() string { return fmt.Sprintf("REP(k=%d,v=%d)", m.K, m.V) }

// ProposalPayload is the proposal message (PROP, k, v|?, H) of the third
// phase (Fig. 4 lines 22/24).
type ProposalPayload struct {
	K    int
	V    int
	HasV bool             // false encodes "?"
	Hist quorum.Histories // nil for MR
}

// Kind implements model.Payload.
func (ProposalPayload) Kind() string { return "PROP" }

// String implements model.Payload.
func (m ProposalPayload) String() string {
	if !m.HasV {
		return fmt.Sprintf("PROP(k=%d,?)", m.K)
	}
	return fmt.Sprintf("PROP(k=%d,v=%d)", m.K, m.V)
}

// LeadDeltaPayload is the delta-encoded form of LeadPayload used by the
// shared-store rsm mode: instead of a full history clone it carries the
// canonical additions since the version the sender last shipped to this
// receiver (Delta.Base == 0 marks the full-snapshot fallback for receivers
// whose base has been compacted away). The rsm transport applies the delta
// to the receiver's shared store and hands the inner instance a plain
// LeadPayload with Hist == nil. Delta payloads must never implement
// model.SupersededPayload: dropping one would break the version chain.
type LeadDeltaPayload struct {
	K     int
	V     int
	Delta quorum.Delta
}

// Kind implements model.Payload.
func (LeadDeltaPayload) Kind() string { return "LEADD" }

// String implements model.Payload.
func (m LeadDeltaPayload) String() string {
	return fmt.Sprintf("LEADD(k=%d,v=%d,%s)", m.K, m.V, m.Delta)
}

// Plain returns the equivalent history-free LeadPayload for the inner
// instance, once the transport has applied the delta.
func (m LeadDeltaPayload) Plain() LeadPayload { return LeadPayload{K: m.K, V: m.V} }

// ProposalDeltaPayload is the delta-encoded form of ProposalPayload (see
// LeadDeltaPayload).
type ProposalDeltaPayload struct {
	K     int
	V     int
	HasV  bool
	Delta quorum.Delta
}

// Kind implements model.Payload.
func (ProposalDeltaPayload) Kind() string { return "PROPD" }

// String implements model.Payload.
func (m ProposalDeltaPayload) String() string {
	if !m.HasV {
		return fmt.Sprintf("PROPD(k=%d,?,%s)", m.K, m.Delta)
	}
	return fmt.Sprintf("PROPD(k=%d,v=%d,%s)", m.K, m.V, m.Delta)
}

// Plain returns the equivalent history-free ProposalPayload.
func (m ProposalDeltaPayload) Plain() ProposalPayload {
	return ProposalPayload{K: m.K, V: m.V, HasV: m.HasV}
}

// SawPayload is the quorum-awareness message (SAW, p, Q) (Fig. 4 line 32);
// the sender p is the message's From field.
type SawPayload struct {
	Q model.ProcessSet
}

// Kind implements model.Payload.
func (SawPayload) Kind() string { return "SAW" }

// String implements model.Payload.
func (m SawPayload) String() string { return fmt.Sprintf("SAW(%s)", m.Q) }

// AckPayload is the acknowledgment (ACK, q, Q, k) (Fig. 4 line 37): the
// sender acknowledges having inserted Q into H_q[p] during its round K.
type AckPayload struct {
	Q model.ProcessSet
	K int
}

// Kind implements model.Payload.
func (AckPayload) Kind() string { return "ACK" }

// String implements model.Payload.
func (m AckPayload) String() string { return fmt.Sprintf("ACK(%s,k=%d)", m.Q, m.K) }

// PayloadRound returns the round number the sender was in when it sent pl:
// the K of a phase message (plain or delta-encoded) or of an ACK. SAW
// carries no round. A host that multiplexes many instances (internal/rsm)
// reads it to learn how far a peer has got in one instance without looking
// inside that peer's state.
func PayloadRound(pl model.Payload) (int, bool) {
	switch p := pl.(type) {
	case LeadPayload:
		return p.K, true
	case ReportPayload:
		return p.K, true
	case ProposalPayload:
		return p.K, true
	case LeadDeltaPayload:
		return p.K, true
	case ProposalDeltaPayload:
		return p.K, true
	case AckPayload:
		return p.K, true
	}
	return 0, false
}
