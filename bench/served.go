package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nuconsensus/internal/obs"
)

// warmUp is sent before every served measurement and excluded from the
// timings: connections are up, the failure detector has stabilised and the
// first log windows (which decide no-ops ahead of client traffic) are
// behind.
const warmUp = time.Second

// clusters is how many fresh nucd clusters an end-to-end run measures, each
// for a third of the run. A cluster slows as its log grows (burst_sat
// answers 2300 writes/s in its first seconds and 1600/s after 25 s), so the
// run's length is part of what is measured; three young clusters also give
// the run three set-up samples.
const clusters = 3

// servedSpec is one served workload: the nucd cluster and the traffic.
type servedSpec struct {
	flags nucdFlags
	// Open loop: fixed-interval arrivals at these rates (reads are half
	// plain, half read-index). Zero writeRate means closed loop.
	writeRate, readRate int
	// Closed loop: writes outstanding per connection, and the write rate
	// the cluster sustains today, which sizes its runs.
	window  int
	nominal int
}

var servedSpecs = map[string]servedSpec{
	wSteadyMix: {flags: nucdFlags{n: 3, batch: 8, pipeline: 2}, writeRate: 100, readRate: 300},
	wBurstSat:  {flags: nucdFlags{n: 3, batch: 16, pipeline: 2}, window: 32, nominal: 1800},
	wWideSeq:   {flags: nucdFlags{n: 5, batch: 1, pipeline: 1}, window: 8, nominal: 70},
}

func (sp servedSpec) open() bool { return sp.writeRate > 0 }

// servedPass is everything one nucd run produced.
type servedPass struct {
	spec     servedSpec
	sessions []*session
	setupS   float64
	from, to time.Duration // measured window, offsets from the epoch
	use      usage
	report   *exitReport     // nil when nucd did not exit cleanly
	spans    []obs.SpanEvent // traced passes only
	verdict  verdict
}

// runServed starts nucd, drives the workload's traffic, verifies, and lets
// nucd exit. Every run promises nucd its write count as -ops, so that nucd
// exits by itself, checks its own replicas against each other and leaves its
// done line, metrics dump and a complete span stream: an open loop replays a
// schedule of warm-up + dur and knows the count up front; a closed loop sends
// the writes its cluster sustains in that time today (the spec's nominal
// rate), however long they take.
func runServed(sp servedSpec, seed int64, dur time.Duration, traced bool) (*servedPass, error) {
	pass := &servedPass{spec: sp}
	var reqs []request
	var ops, perConn int
	if sp.open() {
		reqs = openSchedule(seed, sp.writeRate, sp.readRate, warmUp+dur)
		ops = countWrites(reqs)
	} else {
		perConn = int((warmUp+dur).Seconds()*float64(sp.nominal)) / numConns
		ops = perConn * numConns
	}
	t0 := time.Now()
	c, err := startNucd(sp.flags, ops, traced)
	if err != nil {
		return nil, err
	}
	// Set-up is everything before the first measured request: build, start,
	// first reply, and the warm-up.
	pass.setupS = (time.Since(t0) + warmUp).Seconds()
	defer c.remove()
	// Per-run timeout: a wedged cluster is killed, the connections fail,
	// and whatever was not answered counts as failed.
	guard := time.AfterFunc(warmUp+2*dur+30*time.Second, c.kill)
	defer guard.Stop()

	epoch := time.Now()
	for i := 0; i < numConns; i++ {
		s, err := dial(i, c.addrs[i], seed, epoch)
		if err != nil {
			c.kill()
			return nil, err
		}
		pass.sessions = append(pass.sessions, s)
	}
	pass.from, pass.to = warmUp, warmUp+dur
	if sp.open() {
		err = runOpen(pass.sessions, reqs, warmUp)
	} else {
		// A slower cluster still finishes its count, within reason.
		err = runClosed(pass.sessions, sp.window, warmUp, warmUp+4*dur, perConn)
		pass.to = lastReply(pass.sessions)
	}
	if err != nil {
		pass.verdict.fail(1, "load generator: %v", err)
	}
	checkSessions(pass.sessions, &pass.verdict)

	for _, s := range pass.sessions {
		s.close()
	}
	if !c.waitExit(15 * time.Second) {
		pass.verdict.fail(1, "nucd did not exit cleanly: %v %s", c.waitEr, lastLine(c.stderr.String()))
	} else if pass.report, err = c.report(); err != nil {
		return nil, err
	}
	pass.use = c.usage()
	if traced && pass.report != nil {
		if pass.spans, err = c.spans(); err != nil {
			return nil, fmt.Errorf("span stream: %w", err)
		}
	}
	return pass, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// lastReply is the time of the latest reply on any session.
func lastReply(ss []*session) time.Duration {
	var last time.Duration
	for _, s := range ss {
		s.mu.Lock()
		for _, ops := range [][]op{s.writes, s.reads} {
			for i := range ops {
				if ops[i].recv > last {
					last = ops[i].recv
				}
			}
		}
		s.mu.Unlock()
	}
	return last
}

// measurement is one reported value and the number of samples behind it.
type measurement struct {
	Value float64
	N     int
}

type metricSet map[string]measurement

func (m metricSet) set(name string, v float64, n int) { m[name] = measurement{v, n} }

// latencies collects, per kind, the measured requests' latencies in
// milliseconds from their due time, plus the request tallies.
type latencies struct {
	all      [3][]float64  // kind -> ms, ascending
	late     []float64     // us: actual send - due
	readSvc  []float64     // us: plain reads from actual send
	ackedAll int           // every answered request, warm-up included
	inWindow int           // replies received inside the measured window
	lastRecv time.Duration // latest reply to a measured request
	sloOK    int
	measured int // requests due inside the window, answered or not
}

func collectLatencies(p *servedPass) *latencies {
	l := &latencies{}
	for _, s := range p.sessions {
		s.mu.Lock()
		for _, ops := range [][]op{s.writes, s.reads} {
			for i := range ops {
				o := &ops[i]
				if o.acked() {
					l.ackedAll++
					if o.recv >= p.from && o.recv < p.to {
						l.inWindow++
					}
				}
				if !o.measured || o.due > p.to {
					continue
				}
				l.measured++
				if !o.acked() {
					continue
				}
				l.lastRecv = max(l.lastRecv, o.recv)
				ms := float64(o.recv-o.due) / 1e6
				l.all[o.kind] = append(l.all[o.kind], ms)
				l.late = append(l.late, float64(o.sent-o.due)/1e3)
				limit := sloReadMS
				if o.kind == kindWrite {
					limit = sloWriteMS
				} else if o.kind == kindRead {
					l.readSvc = append(l.readSvc, float64(o.recv-o.sent)/1e3)
				}
				if ms <= limit {
					l.sloOK++
				}
			}
		}
		s.mu.Unlock()
	}
	for k := range l.all {
		sort.Float64s(l.all[k])
	}
	sort.Float64s(l.late)
	sort.Float64s(l.readSvc)
	return l
}

// servedEndToEnd computes the end-to-end metrics over one or more passes:
// the median set-up time, and the clusters' automaton steps and bytes sent
// per decided slot (value and no-op slots), pooled. Both come from nucd's
// own exit report; a pass whose nucd did not exit cleanly has none and has
// already been counted as failed.
func servedEndToEnd(passes ...*servedPass) metricSet {
	var setups []float64
	var steps, bytes, slots float64
	for _, p := range passes {
		setups = append(setups, p.setupS)
		if r := p.report; r != nil {
			steps += r.steps
			bytes += r.counters["netrun.bytes_sent"]
			slots += r.slots
		}
	}
	m := metricSet{}
	m.set("setup_s", median(setups), len(setups))
	if slots > 0 {
		m.set("steps_per_slot", steps/slots, int(slots))
		m.set("bytes_per_slot", bytes/slots, int(slots))
	}
	return m
}

// servedThroughput is the replies per second of one pass. A closed loop
// counts the replies that arrived inside the measured window; an open loop,
// whose request count is fixed by the schedule, counts the measured requests
// answered and lets the window run to the last of those replies, so a
// cluster that falls behind the schedule shows as throughput below the
// offered rate.
func servedThroughput(p *servedPass, l *latencies) measurement {
	if !p.spec.open() {
		return measurement{float64(l.inWindow) / (p.to - p.from).Seconds(), l.inWindow}
	}
	n := 0
	for _, ms := range l.all {
		n += len(ms)
	}
	return measurement{float64(n) / (max(l.lastRecv, p.to) - p.from).Seconds(), n}
}

// servedClientLayers fills the client.* and loadgen.* metrics of a pass.
func servedClientLayers(p *servedPass, m metricSet) {
	l := collectLatencies(p)
	for kind, name := range map[byte]string{kindRead: "read", kindLin: "lin"} {
		if n := len(l.all[kind]); n > 0 {
			m.set(name+"_p50_ms", percentile(l.all[kind], 0.50), n)
			m.set(name+"_p95_ms", tail(l.all[kind], 0.95), n)
		}
	}
	m.set("fail_frac", p.verdict.failFrac(), p.verdict.attempted)
	thr := servedThroughput(p, l)
	m.set("throughput_ops_s", thr.Value, thr.N)
	m.set("server_cpu_ms_per_op", 1e3*(p.use.userS+p.use.sysS)/float64(max(l.ackedAll, 1)), l.ackedAll)
	nw := len(l.all[kindWrite])
	m.set("write_p50_ms", percentile(l.all[kindWrite], 0.50), nw)
	m.set("write_p95_ms", tail(l.all[kindWrite], 0.95), nw)
	if p.spec.open() {
		// A latency limit means something below the knee only; at
		// saturation the share inside it just restates the queue length.
		m.set("slo_ok_frac", float64(l.sloOK)/float64(max(l.measured, 1)), l.measured)
		m.set("loadgen.late_p99_us", tail(l.late, 0.99), len(l.late))
		m.set("loadgen.read_svc_p50_us", percentile(l.readSvc, 0.50), len(l.readSvc))
	}
	m.set("loadgen.write_p99_ms", tail(l.all[kindWrite], 0.99), nw)
	m.set("loadgen.write_max_ms", percentile(l.all[kindWrite], 1), nw)
	m.set("server_peak_rss_mb", p.use.peakRSSMB, 1)
	m.set("nucd.cpu_user_s", p.use.userS, 1)
	m.set("nucd.cpu_sys_s", p.use.sysS, 1)
}

// servedDumpLayers fills the metrics that come from a cleanly exited
// nucd's done line and metrics dump, normalised per decided slot.
func servedDumpLayers(p *servedPass, m metricSet) {
	r := p.report
	if r == nil || r.slots == 0 {
		return
	}
	c, slots := r.counters, r.slots
	ns := int(slots)
	counterLayers(func(name string) float64 { return c[name] }, float64(p.spec.flags.n), slots, m)
	if hn := r.histN["serve.apply.batch_size"]; hn > 0 {
		m.set("nucd.cmds_per_batch", r.histSum["serve.apply.batch_size"]/hn, int(hn))
	}
	m.set("rsm.slots_per_s", slots/r.wallS, ns)
	m.set("rsm.steps_per_slot", r.steps/slots, ns)
	m.set("netrun.frames_per_slot", c["netrun.frames_sent"]/slots, ns)
	m.set("netrun.bytes_per_slot", c["netrun.bytes_sent"]/slots, ns)
	if f := c["netrun.frames_sent"]; f > 0 {
		m.set("substrate.superseded_drop_frac", c["inbox.superseded_drops"]/f, int(f))
	}
	m.set("substrate.steps_per_s", r.steps/r.wallS, int(r.steps))
}

// counterLayers fills the metrics derived from the serving stack's own obs
// counters, which the served runs read from nucd's exit dump and the sim
// runs from their registry. The appliers of one cluster share the serve.*
// counters, hence the division by replicas.
func counterLayers(c func(name string) float64, replicas, slots float64, m metricSet) {
	ns := int(slots)
	m.set("serve.noop_slot_frac", c("serve.apply.noops")/replicas/slots, ns)
	m.set("serve.cmds_per_slot", c("serve.apply.commands")/replicas/slots, ns)
	if b := c("serve.apply.batches") + c("serve.apply.dup_batches"); b > 0 {
		m.set("serve.dup_batch_frac", c("serve.apply.dup_batches")/b, int(b))
	}
	m.set("rsm.parked_per_kslot", 1e3*c("rsm.parked_msgs")/slots, ns)
	if d := c("rsm.hist.delta_hits") + c("rsm.hist.delta_gaps") + c("rsm.hist.full_fallbacks"); d > 0 {
		m.set("rsm.delta_hit_frac", c("rsm.hist.delta_hits")/d, int(d))
	}
	m.set("fd.epochs_per_kslot", 1e3*c("rsm.fd.epochs")/slots, ns)
}
