package netrun

import (
	"bufio"
	"encoding/binary"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
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
