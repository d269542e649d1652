package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Span stages: the life of one client command through the serving stack,
// keyed end to end by the trace context (Client, Seq). The client host
// emits StageSend/StageRecv, the serving host StageIngress and StageReply,
// and the deterministic core (internal/serve) StageSeal, StageInject,
// StageDecide and StageApply. StageDecide is batch-level — one event per
// decided slot, joined to its member commands through the batch ID the
// StageInject events carry — so a slot span fans out to every command that
// rode in it.
const (
	StageSend    = "send"    // client wrote the request to the wire
	StageIngress = "ingress" // serving node read the request
	StageSeal    = "seal"    // replica took the command from ingress into a batch, once its log was free
	StageInject  = "inject"  // replica minted the batch ID and injected it into the log
	StageDecide  = "decide"  // the slot carrying the batch decided (batch-level)
	StageApply   = "apply"   // the command applied through sessions into the machine
	StageReply   = "reply"   // serving node wrote the reply
	StageRecv    = "recv"    // client read the reply
)

// SpanEvent is one stage transition of a traced request. Which fields are
// meaningful depends on the stage (see the Stage constants); Slot is -1
// when the event is not tied to a log slot. Wall is stamped by the
// emitting Tracer's clock — zero under the Logical clock, so span streams
// from deterministic runs are a pure function of the execution.
type SpanEvent struct {
	Stage  string
	P      int    // acting process (serving node, or the node a client session targets)
	Client uint32 // trace context: client session id (0 for batch-level events)
	Seq    uint64 // trace context: per-client command sequence number
	Batch  int    // batch ID (0: none/unknown yet)
	Slot   int    // decided log slot (-1: none)
	N      int    // stage payload: batch size (seal/inject/decide=round), reply status (apply/reply/recv)
	T0     int64  // client send stamp carried in the request frame (ingress only)
	Wall   int64  // wall-clock nanoseconds from the tracer's clock; 0 under Logical
}

// SpanLine renders one span event as its canonical JSONL line (with the
// trailing newline). Like JSONLine, the field order is fixed and
// zero-valued optional fields are omitted, so equal event sequences
// serialize byte-identically.
func SpanLine(ev SpanEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"k":"span","st":%s,"p":%d`, strconv.Quote(ev.Stage), ev.P)
	if ev.Client != 0 || ev.Seq != 0 {
		fmt.Fprintf(&b, `,"c":%d,"seq":%d`, ev.Client, ev.Seq)
	}
	if ev.Batch != 0 {
		fmt.Fprintf(&b, `,"b":%d`, ev.Batch)
	}
	if ev.Slot >= 0 {
		fmt.Fprintf(&b, `,"slot":%d`, ev.Slot)
	}
	if ev.N != 0 {
		fmt.Fprintf(&b, `,"n":%d`, ev.N)
	}
	if ev.T0 != 0 {
		fmt.Fprintf(&b, `,"t0":%d`, ev.T0)
	}
	if ev.Wall != 0 {
		fmt.Fprintf(&b, `,"w":%d`, ev.Wall)
	}
	b.WriteString("}\n")
	return b.String()
}

// spanLine is the parse shape of SpanLine's output.
type spanLine struct {
	K    string `json:"k"`
	St   string `json:"st"`
	P    int    `json:"p"`
	C    uint32 `json:"c"`
	Seq  uint64 `json:"seq"`
	B    int    `json:"b"`
	Slot *int   `json:"slot"`
	N    int    `json:"n"`
	T0   int64  `json:"t0"`
	W    int64  `json:"w"`
}

// ParseSpanLine parses one canonical span JSONL line. Non-span lines
// (other event kinds sharing a log) return ok=false without error, so a
// reader can skim mixed JSONL streams.
func ParseSpanLine(line string) (SpanEvent, bool, error) {
	var raw spanLine
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		return SpanEvent{}, false, err
	}
	if raw.K != "span" {
		return SpanEvent{}, false, nil
	}
	ev := SpanEvent{
		Stage: raw.St, P: raw.P, Client: raw.C, Seq: raw.Seq,
		Batch: raw.B, Slot: -1, N: raw.N, T0: raw.T0, Wall: raw.W,
	}
	if raw.Slot != nil {
		ev.Slot = *raw.Slot
	}
	return ev, true, nil
}

// ReadSpans reads every span event from a JSONL stream, skipping non-span
// lines. It is the ingest path of cmd/nuctrace.
func ReadSpans(r io.Reader) ([]SpanEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []SpanEvent
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ev, ok, err := ParseSpanLine(line)
		if err != nil {
			return out, fmt.Errorf("obs: bad span line %q: %w", line, err)
		}
		if ok {
			out = append(out, ev)
		}
	}
	return out, sc.Err()
}

// Tracer emits span events as canonical JSONL. Like *Bus, a nil *Tracer
// is valid and does nothing, which is how the deterministic core stays
// zero-cost when tracing is off; and like the Bus it stamps wall time
// only through the injected Clock, so determinism-critical packages can
// emit spans without ever referencing obs.Wall themselves (nodeterm's
// obs.Wall ban keeps them honest). All methods are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	clock  Clock
	w      *bufio.Writer
	c      io.Closer
	n      int64
	cSpans *Counter
}

// NewTracer returns a tracer writing span JSONL to w, stamping Wall via
// clock (nil means Logical: wall stays zero) and counting emissions on
// reg's "obs.spans" counter (nil reg: uncounted). If w is an io.Closer (a
// file), Close closes it after flushing.
func NewTracer(w io.Writer, clock Clock, reg *Registry) *Tracer {
	if clock == nil {
		clock = Logical{}
	}
	t := &Tracer{clock: clock, w: bufio.NewWriter(w), cSpans: reg.Counter("obs.spans")}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Span emits one span event, stamping Wall from the tracer's clock unless
// the caller stamped it already (client hosts stamp send time themselves
// so the request frame and the span agree to the nanosecond).
func (t *Tracer) Span(ev SpanEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Wall == 0 {
		ev.Wall = t.clock.Now()
	}
	t.w.WriteString(SpanLine(ev))
	t.n++
	t.cSpans.Add(1)
}

// Spans reports how many span events were emitted.
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Flush writes buffered spans through to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}

// Close flushes and closes the underlying file, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
