package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// JSONL is the deterministic line-oriented exporter: one JSON object per
// event, fields hand-rendered in a fixed order with zero-valued fields
// omitted, so two equal event sequences serialize to byte-identical logs.
// (encoding/json would work too, but hand-rendering pins the byte format
// the CI determinism checks diff, independent of library version.)
type JSONL struct {
	w *bufio.Writer
	c io.Closer
}

// NewJSONL returns a JSONL sink writing to w. If w is an io.Closer (a
// file), Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONL {
	s := &JSONL{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONL) Emit(ev Event) {
	s.w.WriteString(JSONLine(ev))
}

// Close implements Sink: flush, then close the underlying file if any.
func (s *JSONL) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// JSONLine renders one event as its canonical JSONL line (with the
// trailing newline). The field order is fixed: k, t, p, l, then the
// kind-specific fields.
func JSONLine(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"k":%s,"t":%d,"p":%d,"l":%d`, strconv.Quote(ev.Kind.String()), int64(ev.T), int(ev.P), ev.L)
	switch ev.Kind {
	case KindSend:
		fmt.Fprintf(&b, `,"from":%d,"to":%d,"seq":%d,"pl":%s`, int(ev.From), int(ev.To), ev.Seq, strconv.Quote(ev.Payload))
	case KindDeliver:
		fmt.Fprintf(&b, `,"from":%d,"seq":%d,"pl":%s`, int(ev.From), ev.Seq, strconv.Quote(ev.Payload))
	case KindFDQuery, KindFDOutput:
		if ev.FD != nil {
			fmt.Fprintf(&b, `,"fd":%s`, strconv.Quote(ev.FD.String()))
		}
	case KindStep, KindDecide, KindEpochChange:
		fmt.Fprintf(&b, `,"v":%d`, ev.Value)
	case KindQuorumFormed:
		fmt.Fprintf(&b, `,"v":%d,"q":%s`, ev.Value, strconv.Quote(ev.Detail))
	}
	if ev.Wall != 0 {
		fmt.Fprintf(&b, `,"wall":%d`, ev.Wall)
	}
	b.WriteString("}\n")
	return b.String()
}
