// Package explore is a deterministic bounded model checker over the
// internal/model + internal/sim substrate. Where the experiment engine
// samples seeded schedules, explore enumerates *every* schedule of an
// automaton up to a depth bound: which process steps, which buffered
// message it receives (per-link FIFO, the discipline the concurrent
// substrates implement), and which failure-detector value it sees from a
// finite adversary menu.
//
// The state space is the level DAG of configurations: two interleavings
// reaching the same (depth, local states, per-link buffer contents) are
// merged by a canonical 128-bit fingerprint, and a sleep-set partial-order
// reduction skips commuting permutations of independent steps (see
// DESIGN.md §"Exhaustive checking" for the independence relation). The
// frontier is expanded one level at a time, in frontier order, on the
// calling goroutine, so every result is a pure function of the Options.
//
// On a property violation the lexicographically least schedule reaching
// the shallowest violating state is reported, and Shrink reduces it to a
// locally minimal schedule that still violates. Shrunk schedules convert
// to the root package's RecordedRun format and replay through the
// existing Replay/LoadRecordedRun path.
package explore
