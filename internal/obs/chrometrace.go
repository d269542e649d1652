package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// ChromeTrace exports the event stream in the Chrome trace_event JSON
// format, so a run opens directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. The mapping:
//
//   - one trace "thread" per process (tid = process id, pid = 0);
//   - each Step becomes a complete slice ("ph":"X") of one logical tick,
//     with the Lamport annotation and sent-count in args;
//   - each Send/Deliver pair becomes a flow arrow ("ph":"s" → "ph":"f",
//     binding point "e") keyed by the model's unique message identity
//     (From, Seq), so the §2.4 send-before-receive precedence renders as
//     causal arrows between the step slices;
//   - FDQuery, FDOutput, Decide, Crash, QuorumFormed and EpochChange become
//     instant events ("ph":"i") on the process's row.
//
// Timestamps are the run's logical time interpreted as microseconds: the
// export is a pure function of the event sequence, byte-identical whenever
// the event log is.
type ChromeTrace struct {
	doc   *ChromeDoc
	seenP map[int]bool
	order []int
}

// NewChromeTrace returns a trace sink writing to w. If w is an io.Closer
// (a file), Close closes it after finishing the JSON document.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{doc: NewChromeDoc(w), seenP: make(map[int]bool)}
}

// flowID packs the model's unique message identity (From, Seq) into one
// trace-wide flow id.
func flowID(from int, seq uint64) uint64 { return uint64(from)<<40 | (seq & (1<<40 - 1)) }

// Emit implements Sink.
func (s *ChromeTrace) Emit(ev Event) {
	p := int(ev.P)
	if !s.seenP[p] {
		s.seenP[p] = true
		s.order = append(s.order, p)
	}
	ts := int64(ev.T)
	switch ev.Kind {
	case KindStep:
		s.doc.Record(fmt.Sprintf(`{"name":"step","cat":"step","ph":"X","ts":%d,"dur":1,"pid":0,"tid":%d,"args":{"lamport":%d,"sent":%d}}`,
			ts, p, ev.L, ev.Value))
	case KindSend:
		s.doc.Record(fmt.Sprintf(`{"name":%s,"cat":"msg","ph":"s","id":%d,"ts":%d,"pid":0,"tid":%d,"args":{"to":%d,"seq":%d,"lamport":%d}}`,
			strconv.Quote(ev.Payload), flowID(int(ev.From), ev.Seq), ts, p, int(ev.To), ev.Seq, ev.L))
	case KindDeliver:
		s.doc.Record(fmt.Sprintf(`{"name":%s,"cat":"msg","ph":"f","bp":"e","id":%d,"ts":%d,"pid":0,"tid":%d,"args":{"from":%d,"seq":%d,"lamport":%d}}`,
			strconv.Quote(ev.Payload), flowID(int(ev.From), ev.Seq), ts, p, int(ev.From), ev.Seq, ev.L))
	case KindFDQuery, KindFDOutput:
		name, fd := "fd", ""
		if ev.Kind == KindFDOutput {
			name = "output"
		}
		if ev.FD != nil {
			fd = ev.FD.String()
		}
		s.doc.Record(fmt.Sprintf(`{"name":%q,"cat":"fd","ph":"i","s":"t","ts":%d,"pid":0,"tid":%d,"args":{"value":%s}}`,
			name, ts, p, strconv.Quote(fd)))
	case KindDecide:
		s.doc.Record(fmt.Sprintf(`{"name":"decide=%d","cat":"consensus","ph":"i","s":"p","ts":%d,"pid":0,"tid":%d,"args":{"lamport":%d}}`,
			ev.Value, ts, p, ev.L))
	case KindCrash:
		s.doc.Record(fmt.Sprintf(`{"name":"crash","cat":"fault","ph":"i","s":"p","ts":%d,"pid":0,"tid":%d}`, ts, p))
	case KindQuorumFormed:
		s.doc.Record(fmt.Sprintf(`{"name":"quorum","cat":"consensus","ph":"i","s":"t","ts":%d,"pid":0,"tid":%d,"args":{"round":%d,"quorum":%s}}`,
			ts, p, ev.Value, strconv.Quote(ev.Detail)))
	case KindEpochChange:
		s.doc.Record(fmt.Sprintf(`{"name":"round=%d","cat":"consensus","ph":"i","s":"t","ts":%d,"pid":0,"tid":%d}`,
			ev.Value, ts, p))
	}
}

// Close finishes the JSON document (metadata naming each process row comes
// last; tooling accepts metadata anywhere in the array), flushes, and
// closes the underlying file if any.
func (s *ChromeTrace) Close() error {
	s.doc.Record(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"nuconsensus run"}}`)
	for _, p := range s.order {
		s.doc.Record(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"p%d"}}`, p, p))
	}
	return s.doc.Close()
}

// ChromeDoc is the one Chrome trace_event document writer: it owns the
// header, the commas between event objects, the footer and the error
// latch — its bufio.Writer keeps the first write error, turns every later
// write into a no-op, and Close returns it. ChromeTrace renders the event
// bus through it, cmd/nuctrace the request lanes.
type ChromeDoc struct {
	w     *bufio.Writer
	c     io.Closer
	first bool
}

// NewChromeDoc starts a document on w. If w is an io.Closer (a file),
// Close closes it after the footer.
func NewChromeDoc(w io.Writer) *ChromeDoc {
	d := &ChromeDoc{w: bufio.NewWriter(w), first: true}
	if c, ok := w.(io.Closer); ok {
		d.c = c
	}
	d.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return d
}

// Record appends one trace event object.
func (d *ChromeDoc) Record(obj string) {
	if !d.first {
		d.w.WriteByte(',')
	}
	d.first = false
	d.w.WriteString(obj)
}

// Close writes the footer, flushes, closes the underlying file if any,
// and returns the first error met along the way.
func (d *ChromeDoc) Close() error {
	d.w.WriteString("]}\n")
	err := d.w.Flush()
	if d.c != nil {
		if cerr := d.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
