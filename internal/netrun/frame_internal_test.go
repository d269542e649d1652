package netrun

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

// TestFrameOneWrite: dispatch's frames — the length prefix written into the
// hole appendFrame keeps in front of the encoded message — reach the socket
// in one Write each and read back through the reader's wire.ReadFrame as
// the messages sent, with bytes_sent counting
// prefix and message. A body of 128 bytes or more takes a two-byte prefix.
func TestFrameOneWrite(t *testing.T) {
	big := make([]serve.Command, 40)
	for i := range big {
		big[i] = serve.Command{Client: 1, Seq: uint64(i + 1), Op: serve.OpPut, Key: uint64(i), Val: int64(i)}
	}
	msgs := []*model.Message{
		{From: 0, To: 1, Seq: 1, Payload: rsm.ProgressPayload{Slot: 3}},
		{From: 0, To: 1, Seq: 2, Payload: rsm.Bundle{
			rsm.CommandPayload{Cmd: 9},
			rsm.SlotPayload{Slot: 3, Inner: consensus.ReportPayload{K: 1, V: 9}},
			rsm.SlotPayload{Slot: 3, Inner: consensus.SawPayload{Q: model.SetOf(0, 1)}},
		}},
		{From: 0, To: 1, Seq: 3, Payload: serve.BatchPayload{ID: serve.BatchID(0, 1), Cmds: big}},
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
			frame, err := appendFrame(wire.GetBuf(64+frameHole), m)
			if err == nil {
				err = l.writeFrame(frame, &sent)
			}
			wire.PutBuf(frame)
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()

	r := bufio.NewReader(remote)
	read := 0
	for i, want := range msgs {
		frame, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		read += len(binary.AppendUvarint(nil, uint64(len(frame)))) + len(frame)
		var got model.Message
		if err := wire.DecodeMessageInto(&got, frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != want.From || got.To != want.To || got.Seq != want.Seq || !reflect.DeepEqual(got.Payload, want.Payload) {
			t.Errorf("frame %d read back as %v, want %v", i, &got, want)
		}
		if i == len(msgs)-1 && len(frame) < 128 {
			t.Fatalf("the last frame's body is %d bytes: the two-byte prefix went untested", len(frame))
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if conn.writes != len(msgs) {
		t.Errorf("%d frames took %d writes, want one each", len(msgs), conn.writes)
	}
	if got := sent.Load(); got != int64(read) {
		t.Errorf("bytes sent = %d, bytes read = %d", got, read)
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
	m := &model.Message{From: 0, To: 1, Seq: 1, Payload: serve.BatchPayload{ID: serve.BatchID(0, 1), Cmds: cmds}}
	if frame, err := appendFrame(nil, m); err == nil {
		t.Fatalf("a %d-byte frame was accepted above the %d limit", len(frame)-frameHole, wire.MaxFrameSize)
	}
}

// TestForgedEnvelopeDropsLink: a reader delivers a frame only when its
// envelope names the link's two ends, p1 → p0 here (CMD frames: no inbox
// collapses them). A forged From or To —
// out of range either way, or another pair — drops the link without a
// panic, and nothing from the forged frame on reaches any inbox.
func TestForgedEnvelopeDropsLink(t *testing.T) {
	const from, to = 1, 0
	frame := func(from, to model.ProcessID, seq uint64) []byte {
		b, err := wire.EncodeMessage(&model.Message{From: from, To: to, Seq: seq, Payload: rsm.CommandPayload{Cmd: 3}})
		if err != nil {
			t.Fatal(err)
		}
		return append(binary.AppendUvarint(nil, uint64(len(b))), b...)
	}
	// The last two bytes of a CMD(3) frame are the CMD tag and the command.
	corrupt := func(b []byte) []byte { b[len(b)-2] = 0x7F; return b }
	for name, forged := range map[string][]byte{
		"To 63":                  frame(from, 63, 2),
		"To -1":                  frame(from, -1, 2),
		"To of a third process":  frame(from, 2, 2),
		"From of a third":        frame(2, to, 2),
		"From of its receiver":   frame(to, to, 2),
		"an unknown payload tag": corrupt(frame(from, to, 2)),
	} {
		inboxes := substrate.NewInboxes(3)
		stream := bytes.Join([][]byte{frame(from, to, 1), forged, frame(from, to, 3)}, nil)
		read(bytes.NewReader(stream), from, to, inboxes[to])
		if got := inboxes[to].Len(); got != 1 {
			t.Errorf("%s: p%d's inbox holds %d frames, want the one before the forged frame", name, to, got)
		}
		for p, in := range inboxes {
			if p != to && in.Len() != 0 {
				t.Errorf("%s: p%d's inbox holds %d frames from the p%d → p%d link", name, p, in.Len(), from, to)
			}
		}
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
