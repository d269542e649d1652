// Package obs is the unified observability layer beneath every execution
// substrate and driver in this repository: one causal event bus, one
// metrics registry and one set of profiling hooks, consumed identically by
// the deterministic simulator (internal/sim), the concurrent substrates
// (async and internal/netrun, both via internal/substrate.RunCluster),
// the experiment engine (internal/experiments) and the bounded model
// checker (internal/explore).
//
// Each observable has one rendering: events as JSONL (JSONL) or as a
// Chrome trace (ChromeTrace, written through ChromeDoc, which cmd/nuctrace
// shares) or kept in memory (Collector); the registry as JSONL
// (Registry.WriteJSONL, every host's -metrics) or as Prometheus text
// (WritePrometheus, the live /metrics); and one debug server (ServeDebug)
// for every host's -debug-addr.
//
// The paper's arguments are statements about what happened in a run —
// which steps were taken, which failure-detector samples were read, which
// quorums formed, which messages causally preceded a decision (§2.1–2.6,
// the DAG construction of §4). The event bus records exactly that causal
// structure: every event carries the run's logical time, the acting
// process, and a Lamport clock annotation whose order refines the model's
// §2.4 precedence (program order per process plus send-before-receive per
// message identity (From, Seq)).
//
// Determinism rules (DESIGN.md §7):
//
//   - Events on deterministic paths are stamped with logical time only;
//     the Wall field stays zero under the default Logical clock, so sim
//     event logs are byte-identical at any worker count.
//   - Wall-clock stamping lives behind the Clock interface. The wall shim
//     (Wall) is injected only by the intentionally nondeterministic
//     concurrent substrates; determinism-critical packages are barred from
//     it by the nodeterm analyzer's obs.Wall ban (internal/lint/nodeterm).
//   - Metric snapshots are rendered in sorted name order and accumulate
//     only commutative quantities (counter sums, histogram bucket counts),
//     so metric dumps are byte-identical at any -parallel value.
package obs

import (
	"fmt"
	"time"

	"nuconsensus/internal/model"
)

// Kind enumerates the event taxonomy. The set is deliberately small and
// model-level: every kind maps to a construct of §2 (steps, sends,
// receipts, failure-detector queries, decisions, crashes) or to the
// round/quorum structure the algorithms of §6 expose.
type Kind uint8

const (
	// KindStep is one atomic step of §2.4: process P, at logical time T,
	// received a message or λ, queried its failure-detector module and
	// moved; Value carries the number of messages the step sent.
	KindStep Kind = iota
	// KindSend is one message entering the buffer: P sent (Seq, Payload)
	// to To. Together with KindDeliver it carries the send-before-receive
	// edges of the §2.4 precedence relation.
	KindSend
	// KindDeliver is a message leaving the buffer: P received Seq from
	// From. Its Lamport annotation strictly exceeds the matching send's.
	KindDeliver
	// KindFDQuery is a failure-detector read: P saw FD at time T (§2.3).
	KindFDQuery
	// KindQuorumFormed marks the completion of a quorum wait: P's round
	// advanced while its failure-detector module output the quorum in
	// Detail (get_quorum of Fig. 5); Value is the new round.
	KindQuorumFormed
	// KindDecide is a decision: P decided Value at time T.
	KindDecide
	// KindCrash is a crash from the failure pattern: P halted at time T.
	KindCrash
	// KindEpochChange is a round/epoch transition: P entered round Value.
	KindEpochChange
	// KindFDOutput is the emulated failure-detector output of §2.9: after
	// the step at time T (or in its initial state, T = 0), P's output_p
	// variable holds FD. Emitted only for states that emulate a detector
	// (model.FDOutput); check.History rebuilds H′(p, t) from these.
	KindFDOutput

	numKinds
)

// kindNames are the stable wire names of the kinds (JSONL "k" field).
var kindNames = [numKinds]string{
	"step", "send", "deliver", "fdquery", "quorum", "decide", "crash", "epoch", "output",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one observed occurrence. Fields beyond Kind/T/P/L are populated
// per kind (see the Kind constants); zero-valued fields are omitted from
// serialized logs.
type Event struct {
	Kind Kind
	// T is the run's logical time (the shared step clock on every
	// substrate).
	T model.Time
	// P is the acting process.
	P model.ProcessID
	// L is the event's Lamport clock annotation: a total order refining
	// the §2.4 precedence relation. All events of one atomic step carry
	// the step's Lamport time.
	L uint64
	// From/To/Seq identify a message (Send, Deliver); (From, Seq) is the
	// model's unique message identity.
	From model.ProcessID
	To   model.ProcessID
	Seq  uint64
	// Payload is the message payload kind (Send, Deliver).
	Payload string
	// FD is the sampled (FDQuery) or emulated (FDOutput) failure-detector
	// value; sinks render it with String(). FD values are immutable, so
	// retaining them is safe.
	FD model.FDValue
	// Detail is a free-form annotation (the quorum of a QuorumFormed).
	Detail string
	// Value is the kind's integer payload: messages sent (Step), decision
	// value (Decide), new round (EpochChange, QuorumFormed).
	Value int
	// Wall is a wall-clock nanosecond stamp, zero under the Logical clock.
	// Wall stamps are diagnostic only and never part of deterministic
	// comparisons.
	Wall int64
}

// Clock stamps events with wall time. The bus calls Now once per emitted
// step. Deterministic paths use Logical (always zero); the concurrent
// substrates inject the wall shim at run start.
type Clock interface {
	// Now returns a wall-clock nanosecond stamp, or 0 for "no wall time".
	Now() int64
}

// Logical is the deterministic clock: it stamps nothing, so event logs are
// a pure function of the run. It is the default of NewBus.
type Logical struct{}

// Now implements Clock.
func (Logical) Now() int64 { return 0 }

// Wall is the wall-clock shim for the intentionally nondeterministic
// substrates. Determinism-critical packages must not reference it — the
// nodeterm analyzer (internal/lint/nodeterm) enforces that; the concurrent
// cluster driver injects it via Bus.SetClock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() int64 { return time.Now().UnixNano() }
