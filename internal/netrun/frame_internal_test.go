package netrun

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// writeCounter counts the Write calls reaching a connection.
type writeCounter struct {
	net.Conn
	writes int
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes++
	return c.Conn.Write(b)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	io.Reader
	n int
}

func (r *countingReader) Read(b []byte) (int, error) {
	n, err := r.Reader.Read(b)
	r.n += n
	return n, err
}

// TestFrameOneWrite: dispatch's frames (link.send) — the length prefix
// written into the hole appendFrame keeps in front of the encoded message —
// reach the socket in one Write each, and the link's reader reads them back
// as the messages sent: From and To from the link, Seq from the count of
// frames, the payload from the frame, decoded on the receiver's codec for
// the link. bytes_sent counts prefix and payload. A payload of 128 bytes or
// more takes a two-byte prefix. The second bundle's REP is round 1 behind
// the first bundle's round 2: a sender that coded it on a fresh run would
// let it inherit the round, and the receiver would read round 2.
func TestFrameOneWrite(t *testing.T) {
	const from, to = 0, 1
	big := make([]serve.Command, 40)
	for i := range big {
		big[i] = serve.Command{Client: 1, Seq: uint64(i + 1), Op: serve.OpPut, Key: uint64(i), Val: int64(i)}
	}
	payloads := []model.Payload{
		rsm.ProgressPayload{Slot: 3},
		rsm.Bundle{
			rsm.CommandPayload{Cmd: 9},
			rsm.SlotPayload{Slot: 3, Inner: consensus.ReportPayload{K: 2, V: 9}},
			rsm.SlotPayload{Slot: 3, Inner: consensus.SawPayload{Q: model.SetOf(0, 1)}},
		},
		rsm.Bundle{
			rsm.SlotPayload{Slot: 4, Inner: consensus.ReportPayload{K: 1, V: 9}},
			rsm.ProgressPayload{Slot: 3},
		},
		serve.BatchPayload{ID: serve.BatchID(0, 1), Cmds: big},
	}
	var msgs []*model.Message
	for i, pl := range payloads {
		msgs = append(msgs, &model.Message{From: from, To: to, Seq: substrate.LinkSeq(from, to, uint64(i+1)), Payload: pl})
	}
	if b, err := wire.EncodePayload(payloads[len(payloads)-1]); err != nil || len(b) < 128 {
		t.Fatalf("the last payload encodes in %d bytes (err %v): the two-byte prefix would go untested", len(b), err)
	}
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &writeCounter{Conn: local}
	l := &link{conn: conn}
	var sent atomic.Int64
	errs := make(chan error, 1)
	go func() {
		defer l.close()
		for _, m := range msgs {
			if err := l.send(m.Payload, &sent); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()

	inbox := substrate.NewInboxes(2)[to]
	counted := &countingReader{Reader: remote}
	read(counted, from, to, inbox)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	var dec wire.Link
	for i, want := range msgs {
		m := inbox.Take()
		if m == nil {
			t.Fatalf("frame %d never reached the inbox", i)
		}
		got := resolve(m, &dec)
		if got == nil || got.From != want.From || got.To != want.To || got.Seq != want.Seq || !reflect.DeepEqual(got.Payload, want.Payload) {
			t.Errorf("frame %d read back as %v, want %v", i, got, want)
		}
	}
	if conn.writes != len(msgs) {
		t.Errorf("%d frames took %d writes, want one each", len(msgs), conn.writes)
	}
	if got := sent.Load(); got != int64(counted.n) {
		t.Errorf("bytes sent = %d, bytes read = %d", got, counted.n)
	}
}

// tornConn fails its second Write after passing the first half of it on,
// as a socket can fail partway through a frame.
type tornConn struct {
	net.Conn
	writes int
}

func (c *tornConn) Write(b []byte) (int, error) {
	if c.writes++; c.writes != 2 {
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:len(b)/2])
	return n, errors.New("torn write")
}

// TestFailedWriteClosesLink: a write that fails partway through a frame
// closes the link. Every later send returns an error (dispatch counts each
// in netrun.frame_write_errors) and writes nothing, so the peer reads the
// first frame, half of the second and then EOF, never a frame behind the
// torn one. The codec does not commit the torn frame.
func TestFailedWriteClosesLink(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &tornConn{Conn: local}
	l := &link{conn: conn}
	peer := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(remote)
		peer <- b
	}()
	pls := []model.Payload{
		rsm.SlotPayload{Slot: 3, Inner: consensus.ReportPayload{K: 2, V: 9}},
		rsm.SlotPayload{Slot: 3, Inner: consensus.ReportPayload{K: 2, V: 9}},
		rsm.CommandPayload{Cmd: 4},
		rsm.SlotPayload{Slot: 4, Inner: consensus.ReportPayload{K: 2, V: 9}},
	}
	var sent atomic.Int64
	var frames [][]byte
	var enc wire.Link
	for i, pl := range pls {
		frame, err := appendFrame(nil, &enc, pl)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			enc.Commit()
		}
		frames = append(frames, frame[frameHole-1:]) // every frame here is shorter than 128 bytes
		frames[i][0] = byte(len(frame) - frameHole)
		if err := l.send(pl, &sent); (err == nil) != (i == 0) {
			t.Errorf("send %d returned %v", i, err)
		}
	}
	if l.conn != nil || conn.writes != 2 {
		t.Errorf("after a torn write the link is open (%v) and took %d writes, want closed after 2", l.conn != nil, conn.writes)
	}
	l.close() // a link left open would keep the peer reading
	want := append(append([]byte{}, frames[0]...), frames[1][:len(frames[1])/2]...)
	if got := <-peer; !bytes.Equal(got, want) {
		t.Errorf("the peer read %x, want %x: the first frame and half of the torn one", got, want)
	}
	if got := sent.Load(); got != int64(len(frames[0])) {
		t.Errorf("bytes sent = %d, want the first frame's %d", got, len(frames[0]))
	}
	// The sender's codec stands after the first frame: a fresh sender that
	// sent it alone codes the next frame the same.
	if next, err := l.enc.Append(nil, pls[3]); err != nil || !bytes.Equal(next, frames[3][1:]) {
		t.Errorf("after the torn write the codec codes %v as %x (err %v), want %x", pls[3], next, err, frames[3][1:])
	}
}

// TestAppendFrameRefusesOversized: a message whose frame would exceed
// wire.MaxFrameSize is an encoding error at the sender, which dispatch
// turns into a panic, instead of a frame the peer's reader refuses.
func TestAppendFrameRefusesOversized(t *testing.T) {
	cmds := make([]serve.Command, wire.MaxFrameSize/4)
	for i := range cmds {
		cmds[i] = serve.Command{Client: 1, Seq: uint64(i + 1), Op: serve.OpPut, Key: uint64(i), Val: int64(i)}
	}
	var enc wire.Link
	if frame, err := appendFrame(nil, &enc, serve.BatchPayload{ID: serve.BatchID(0, 1), Cmds: cmds}); err == nil {
		t.Fatalf("a %d-byte frame was accepted above the %d limit", len(frame)-frameHole, wire.MaxFrameSize)
	}
}

// TestCorruptFrameDropsLink: a reader delivers a frame only when its
// payload has a kind it knows, p1 → p0 here (CMD frames: no inbox
// collapses them). A frame of an unknown payload tag or slot item code, or
// an empty one, drops the link without a panic, and nothing from it on
// reaches any inbox. The frame before it arrives as p1's first message to
// p0.
func TestCorruptFrameDropsLink(t *testing.T) {
	const from, to = 1, 0
	cmd, err := wire.EncodePayload(rsm.CommandPayload{Cmd: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A CMD(3) payload is the CMD tag and the command; a slot item's head
	// byte has the top bit set and its code in bits 0–2 and 6, of which
	// PRGR's code with bit 6 is no slot item's.
	frame := func(b ...byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(b))), b...) }
	for name, corrupt := range map[string][]byte{
		"an unknown payload tag":    frame(0x7F, cmd[1]),
		"an unknown slot item code": frame(0x80|0x40|6, 1),
		"an empty frame":            frame(),
	} {
		inboxes := substrate.NewInboxes(3)
		stream := bytes.Join([][]byte{frame(cmd...), corrupt, frame(cmd...)}, nil)
		read(bytes.NewReader(stream), from, to, inboxes[to])
		if got := inboxes[to].Len(); got != 1 {
			t.Errorf("%s: p%d's inbox holds %d frames, want the one before the corrupt frame", name, to, got)
		}
		for p, in := range inboxes {
			if p != to && in.Len() != 0 {
				t.Errorf("%s: p%d's inbox holds %d frames from the p%d → p%d link", name, p, in.Len(), from, to)
			}
		}
		m := inboxes[to].Take()
		if m != nil {
			m = resolve(m, new(wire.Link))
		}
		if m == nil || m.From != from || m.To != to || m.Seq != substrate.LinkSeq(from, to, 1) {
			t.Errorf("%s: the frame before it arrived as %v, want p%d's first message to p%d", name, m, from, to)
		}
	}
}

// TestUndecodableFrameDropsLaterFrames: a frame of a known kind whose body
// does not decode reaches the inbox, since the reader only peeks, but it
// resolves to nothing, and so does every later frame from that peer, valid
// or not: its codec cannot re-sync the link's run. A frame from another
// peer, on its own codec, still resolves.
func TestUndecodableFrameDropsLaterFrames(t *testing.T) {
	const from, to = 1, 0
	cmd, err := wire.EncodePayload(rsm.CommandPayload{Cmd: 3})
	if err != nil {
		t.Fatal(err)
	}
	frame := func(b ...byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(b))), b...) }
	truncated := frame(cmd[0], 0x80) // the CMD tag and a varint cut short
	stream := bytes.Join([][]byte{frame(cmd...), truncated, frame(cmd...), frame(cmd...)}, nil)
	inbox := substrate.NewInboxes(3)[to]
	read(bytes.NewReader(stream), from, to, inbox)
	read(bytes.NewReader(frame(cmd...)), 2, to, inbox)
	ms := &mesh{links: [][]*link{{nil, {}, {}}, {{}, nil, {}}, {{}, {}, nil}}}
	var got []bool
	for m := inbox.Take(); m != nil; m = inbox.Take() {
		got = append(got, ms.resolve(m) != nil)
	}
	if want := []bool{true, false, false, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("frames resolved %v, want %v", got, want)
	}
}

// TestBadHelloRejected: a listener files a connection only under a lower
// id that has not dialed it yet, so a hello byte of n or more, of the
// listener's own id or of a higher one, or repeated, is an error and not a
// panic or a misfiled link.
func TestBadHelloRejected(t *testing.T) {
	const n, q = 3, 1
	m := &mesh{links: make([][]*link, n)}
	for p := range m.links {
		m.links[p] = make([]*link, n)
	}
	var mu sync.Mutex
	hello := func(b byte) error {
		local, remote := net.Pipe()
		defer remote.Close()
		go remote.Write([]byte{b})
		return m.accept(q, local, &mu)
	}
	for _, b := range []byte{255, n, q, q + 1} {
		if err := hello(b); err == nil {
			t.Errorf("hello %d to p%d accepted", b, q)
		}
	}
	if err := hello(0); err != nil {
		t.Fatalf("hello 0 to p%d: %v", q, err)
	}
	if err := hello(0); err == nil {
		t.Error("a second hello 0 accepted")
	}
	for p, l := range m.links[q] {
		if (l != nil) != (p == 0) {
			t.Errorf("link p%d → p%d filed: %v", q, p, l != nil)
		}
	}
}
