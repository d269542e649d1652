package main

import (
	"fmt"

	"nuconsensus/internal/model"
	"nuconsensus/internal/serve"
)

// verdict is a run's correctness tally. Every check feeds failed instead
// of aborting, so a broken run still reports its numbers.
type verdict struct {
	attempted int
	failed    int
	notes     []string // first few failures, for the printed report
}

func (v *verdict) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	v.failed += n
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// add folds another pass's tally into v.
func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.notes = append(v.notes, o.notes...)
}

func (v *verdict) failFrac() float64 {
	if v.attempted == 0 {
		return 0
	}
	return float64(v.failed) / float64(v.attempted)
}

// checkSessions judges every request the load generator sent from the
// client's side of the wire:
//
//   - each write is acked exactly once, with StatusOK and its own value
//     (never StatusDup or StatusRetired: the generator never retries);
//   - a plain read returns a value this session wrote to that key and had
//     sent before the reply arrived, or "missing";
//   - a read-index read on top of that is not stale: if write a to the key
//     was acked before the read was sent, the read may not return a write w
//     whose own ack came before a was even sent (w applied before a, and
//     the read was served after a applied). Apply order between
//     overlapping writes is not fixed by send order — with -pipeline 2 a
//     later batch can decide first — so only that real-time order is
//     checked. "Missing" is allowed only while no write to the key was
//     acked.
//
// Unanswered requests count as failed.
func checkSessions(ss []*session, v *verdict) {
	for _, s := range ss {
		s.mu.Lock()
		v.fail(s.stray, "conn %d: %d replies match no request", s.id, s.stray)
		byKey := make(map[uint64][]*op)
		for i := range s.writes {
			w := &s.writes[i]
			v.attempted++
			switch {
			case !w.acked():
				v.fail(1, "conn %d write #%d unanswered", s.id, i+1)
			case w.replies > 1:
				v.fail(1, "conn %d write #%d acked %d times", s.id, i+1, w.replies)
			case w.status != serve.StatusOK:
				v.fail(1, "conn %d write #%d status %d", s.id, i+1, w.status)
			}
			byKey[w.key] = append(byKey[w.key], w)
		}
		for i := range s.reads {
			r := &s.reads[i]
			v.attempted++
			if !r.acked() {
				v.fail(1, "conn %d read #%d unanswered", s.id, i+1)
				continue
			}
			if why := checkRead(s, r, byKey[r.key]); why != "" {
				v.fail(1, "conn %d %s #%d key %d: %s", s.id, kindNames[r.kind], i+1, r.key, why)
			}
		}
		s.mu.Unlock()
	}
}

// checkRead returns why read r is wrong, or "". writes are the session's
// writes to r's key in send order.
func checkRead(s *session, r *op, writes []*op) string {
	if r.replies > 1 {
		return fmt.Sprintf("answered %d times", r.replies)
	}
	var seen *op
	switch r.status {
	case serve.StatusMissing:
	case serve.StatusOK:
		conn, seq := valWrite(r.val)
		if conn != s.id || seq < 1 || seq > uint64(len(s.writes)) || s.writes[seq-1].key != r.key {
			return fmt.Sprintf("value %#x was never written to this key", r.val)
		}
		seen = &s.writes[seq-1]
		if seen.sent > r.recv {
			return "value from a write sent after the reply"
		}
	default:
		return fmt.Sprintf("status %d", r.status)
	}
	if r.kind != kindLin {
		return ""
	}
	for _, a := range writes {
		if !a.acked() || a.recv >= r.sent || a == seen {
			continue
		}
		if seen == nil {
			return fmt.Sprintf("missing although write #%d was acked before the read", a.val&(1<<40-1))
		}
		if seen.acked() && seen.recv < a.sent {
			return fmt.Sprintf("stale: saw write #%d, but #%d was acked before the read", seen.val&(1<<40-1), a.val&(1<<40-1))
		}
	}
	return ""
}

// checkSim judges a finished sim run: every one of the total commands was
// acknowledged exactly once at the replica that accepted it (acks holds
// the count per command), every correct replica applied all of them, the
// correct replicas' decided sequences are prefixes of one another (log
// agreement, which is what safety under the crash means; replicas stop at
// different lengths), and replicas that applied equally many entries hold
// identical machines.
func checkSim(cl *serve.Cluster, correct model.ProcessSet, total int, acks map[cmdKey]int, v *verdict) {
	v.attempted += total
	v.fail(total-len(acks), "%d of %d commands never acknowledged", total-len(acks), total)
	type view struct {
		p       model.ProcessID
		decided []int
		stats   serve.Stats
		sum     uint64
	}
	var views []view
	correct.ForEach(func(p model.ProcessID) {
		ap := cl.Applier(p)
		views = append(views, view{p, ap.Decided(), ap.StatsOf(), ap.Checksum()})
	})
	for _, a := range views {
		if int(a.stats.Commands) != total {
			v.fail(1, "p%d applied %d distinct commands, want %d", a.p, a.stats.Commands, total)
		}
		for _, b := range views {
			if b.p <= a.p {
				continue
			}
			n := min(len(a.decided), len(b.decided))
			for i := 0; i < n; i++ {
				if a.decided[i] != b.decided[i] {
					v.fail(1, "p%d and p%d decided %d vs %d in slot %d", a.p, b.p, a.decided[i], b.decided[i], i)
					break
				}
			}
			if a.stats.Applied == b.stats.Applied && a.sum != b.sum {
				v.fail(1, "p%d and p%d applied %d entries but checksums differ", a.p, b.p, a.stats.Applied)
			}
		}
	}
	for k, n := range acks {
		if n != 1 {
			v.fail(1, "command c%d#%d acknowledged %d times", k.client, k.seq, n)
		}
	}
}

type cmdKey struct {
	client uint32
	seq    uint64
}
