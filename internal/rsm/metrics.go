// The log's obs instruments, resolved once per log.
package rsm

import (
	"sync"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// WithMetrics attaches an obs metrics registry, resolving the log's
// instruments once so no step looks one up.
func (a *Log) WithMetrics(reg *obs.Registry) *Log {
	a.metrics = newLogMetrics(reg, a.n)
	return a
}

// newLogMetrics resolves the log's instruments for n processes on reg.
func newLogMetrics(reg *obs.Registry, n int) *logMetrics {
	m := &logMetrics{
		deltaHits:     reg.Counter("rsm.hist.delta_hits"),
		fullFallbacks: reg.Counter("rsm.hist.full_fallbacks"),
		deltaGaps:     reg.Counter("rsm.hist.delta_gaps"),
		storeBytes:    reg.Gauge("rsm.hist.store_bytes"),
		storeEntries:  reg.Gauge("rsm.hist.store_entries"),
		fdEpochs:      reg.Counter("rsm.fd.epochs"),
		parkedMsgs:    reg.Counter("rsm.parked_msgs"),
		parkedReplay:  reg.Counter("rsm.parked_replayed"),
		quietParks:    reg.Counter("rsm.quiet_parked"),
		quietReplays:  reg.Counter("rsm.quiet_replayed"),
		quietEnters:   reg.Counter("rsm.quiet_enter"),
		quietWakes:    reg.Counter("rsm.quiet_wake"),
		quietRetires:  reg.Counter("rsm.quiet_retired"),
		quietHeld:     reg.Counter("rsm.quiet_held"),
		quietReleased: reg.Counter("rsm.quiet_released"),
		leadLent:      reg.Counter("rsm.lead_lent"),
		leadReleased:  reg.Counter("rsm.lead_released"),
		instOpened:    reg.Counter("rsm.instances_opened"),
		instRetired:   reg.Counter("rsm.instances_retired"),
		awareSeeded:   reg.Counter("rsm.aware.seeded"),
		awareUnseeded: reg.Counter("rsm.aware.unseeded"),
		awareRecords:  reg.Counter("rsm.aware.records"),
		awareLast:     make([]lastOpen, n),
	}
	for row, name := range [...]string{rowPRGR: "progress", rowFLW: "follow", rowOwed: "owed"} {
		m.rides[row] = [2]*obs.Counter{reg.Counter("rsm." + name + "_bare"), reg.Counter("rsm." + name + "_carried")}
	}
	m.progressImplied = reg.Counter("rsm.progress_implied")
	return m
}

// AwareStatus describes the last slot instance process p opened and why it
// was or was not seeded with an acknowledged quorum (aware.go) — the answer
// to "why is this slot taking three rounds". It is empty before p's first
// open, and safe to call while the log runs.
func (a *Log) AwareStatus(p model.ProcessID) string {
	l := &a.metrics.awareLast[p]
	l.mu.Lock()
	open, set := l.open, l.set
	l.mu.Unlock()
	if !set {
		return ""
	}
	return open.String()
}

// WithSampler attaches the shared failure-detector sampler whose samples
// drive this log, subscribing the epoch-fanout counter: every epoch
// change any process's module announces is one rsm.fd.epochs increment.
func (a *Log) WithSampler(s *fd.Sampler) *Log {
	s.Subscribe(func(model.ProcessID, fd.Sample) { a.metrics.fdEpochs.Add(1) })
	return a
}

// logMetrics holds the log's obs instruments. A log built without a
// registry holds nil ones, which record nothing (obs.Registry).
type logMetrics struct {
	deltaHits     *obs.Counter
	fullFallbacks *obs.Counter
	deltaGaps     *obs.Counter
	storeBytes    *obs.Gauge // high-water wire size of one process's store
	storeEntries  *obs.Gauge // high-water entry count of one process's store
	fdEpochs      *obs.Counter
	// parkedMsgs / parkedReplay count messages that arrived before their
	// slot opened here entering and leaving the park buffers (see
	// parkedMsg). Both are monotone counters — the live parked population
	// is their difference — because only commutative instruments keep
	// metric dumps deterministic under concurrency.
	parkedMsgs   *obs.Counter
	parkedReplay *obs.Counter
	// The quiet gate's own books (see quiet in rsm.go), kept apart from the
	// two above so those keep meaning "late opener": messages parked at /
	// replayed into a quiet instance, transitions into and out of quiet,
	// and quiet instances discarded by retirement — the quiet population is
	// enter − wake − retired. held / released count the sends a quiet
	// instance's new-round LEAD was withheld from and those that went out
	// after all (see stepInstance); their difference was never needed.
	quietParks    *obs.Counter
	quietReplays  *obs.Counter
	quietEnters   *obs.Counter
	quietWakes    *obs.Counter
	quietRetires  *obs.Counter
	quietHeld     *obs.Counter
	quietReleased *obs.Counter
	// The outbox's books (outbox.go): rides[row] counts the PRGR, FLW or
	// owed items that left alone ([0], rsm.<row>_bare) and those that rode
	// in a bundle with other traffic ([1], rsm.<row>_carried);
	// progressImplied counts the peers whose due PRGR stayed home because
	// the step's slot items implied it (rsm.progress_implied); leadLent /
	// leadReleased count round-1 LEADs held for a peer that follows another
	// process and those sent after all.
	rides           [3][2]*obs.Counter
	progressImplied *obs.Counter
	leadLent        *obs.Counter
	leadReleased    *obs.Counter
	// instOpened / instRetired count slot instances created and discarded; their
	// difference is the live-instance population a stalled floor grows.
	instOpened  *obs.Counter
	instRetired *obs.Counter
	// Quorum awareness (aware.go): instances opened with / without a seeded
	// quorum — the latter pay their own SAW → ACK round trip before line 30
	// can pass — and awareness records created (distinct quorums some
	// process has had acknowledged).
	awareSeeded   *obs.Counter
	awareUnseeded *obs.Counter
	awareRecords  *obs.Counter
	// awareLast[p] is the last instance process p opened, for AwareStatus.
	awareLast []lastOpen
}

// lastOpen holds one process's last awareOpen by value, so recording it
// allocates nothing; the lock is there because a telemetry handler reads
// it while the process's goroutine steps.
type lastOpen struct {
	mu   sync.Mutex
	open awareOpen
	set  bool // false before the process's first open
}

// The outbox rows with a bare/carried pair in logMetrics.rides.
const (
	rowPRGR = iota
	rowFLW
	rowOwed
)

// sent counts n items of an outbox row that left for one peer, carried or
// bare.
func (m *logMetrics) sent(row, n int, carried bool) {
	i := 0
	if carried {
		i = 1
	}
	m.rides[row][i].Add(int64(n))
}

// opened counts one instance created by p, as the awareness gate saw it.
func (m *logMetrics) opened(p model.ProcessID, open awareOpen) {
	m.instOpened.Add(1)
	if open.seeded > 0 {
		m.awareSeeded.Add(1)
	} else {
		m.awareUnseeded.Add(1)
	}
	l := &m.awareLast[p]
	l.mu.Lock()
	l.open, l.set = open, true
	l.mu.Unlock()
}
