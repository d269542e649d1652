package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/transform"
	"nuconsensus/internal/wire"
)

func sampleHistories() quorum.Histories {
	h := quorum.NewHistories(3)
	h.Add(0, model.SetOf(0, 1))
	h.Add(0, model.SetOf(0, 2))
	h.Add(2, model.SetOf(2))
	return h
}

func sampleDelta() quorum.Delta {
	return quorum.Delta{
		Base: 4,
		To:   6,
		Adds: []quorum.DeltaEntry{
			{R: 0, Q: model.SetOf(0, 1)},
			{R: 2, Q: model.SetOf(1, 2)},
		},
	}
}

func TestRoundTripPayloads(t *testing.T) {
	payloads := []model.Payload{
		consensus.LeadPayload{K: 3, V: -7, Hist: sampleHistories()},
		consensus.LeadPayload{K: 1, V: 0},
		consensus.ReportPayload{K: 2, V: 42},
		consensus.ProposalPayload{K: 5, V: 9, HasV: true, Hist: sampleHistories()},
		consensus.ProposalPayload{K: 5},
		consensus.SawPayload{Q: model.SetOf(0, 2)},
		consensus.AckPayload{Q: model.SetOf(1), K: 8},
		transform.RoundPayload{K: 12},
		hb.HeartbeatPayload{},
		consensus.EstimatePayload{R: 4, V: -3, TS: 2},
		consensus.CoordPayload{R: 6, V: 1},
		consensus.ReplyPayload{R: 7, Ok: true},
		consensus.ReplyPayload{R: 8},
		consensus.DecidePayload{V: -1},
		consensus.LeadDeltaPayload{K: 3, V: -7, Delta: sampleDelta()},
		consensus.LeadDeltaPayload{K: 1, V: 0, Delta: quorum.Delta{Base: 2, To: 2}},
		consensus.ProposalDeltaPayload{K: 5, V: 9, HasV: true, Delta: sampleDelta()},
		consensus.ProposalDeltaPayload{K: 5, Delta: quorum.Delta{To: 1, Adds: []quorum.DeltaEntry{{R: 1, Q: model.SetOf(1)}}}},
		consensus.ProposalDeltaPayload{K: 5, V: 2, HasV: true, Delta: quorum.Delta{Base: 300, To: 300}},
		consensus.LeadDeltaPayload{K: 2, V: 1, Delta: quorum.Delta{Base: 0, To: 0}},
	}
	for _, pl := range payloads {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		got, err := wire.DecodePayload(b)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		if !reflect.DeepEqual(got, pl) {
			t.Errorf("%T round trip: got %#v, want %#v", pl, got, pl)
		}
	}
}

func TestRoundTripValues(t *testing.T) {
	values := []model.FDValue{
		fd.NullValue{},
		fd.LeaderValue{Leader: 5},
		fd.QuorumValue{Quorum: model.SetOf(0, 3, 63)},
		fd.SuspectsValue{Suspects: model.SetOf(1)},
		fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: model.SetOf(0, 1)}},
		fd.PairValue{
			First:  fd.PairValue{First: fd.NullValue{}, Second: fd.SuspectsValue{}},
			Second: fd.LeaderValue{Leader: 2},
		},
	}
	for _, v := range values {
		b, err := wire.EncodeValue(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		got, err := wire.DecodeValue(b)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T round trip: got %#v, want %#v", v, got, v)
		}
	}
}

func TestRoundTripGraph(t *testing.T) {
	g := dag.NewGraph()
	g.AddSample(0, fd.QuorumValue{Quorum: model.SetOf(0, 1)}, 1)
	g.AddSample(1, fd.LeaderValue{Leader: 0}, 1)
	g.AddSample(0, fd.PairValue{First: fd.LeaderValue{Leader: 1}, Second: fd.QuorumValue{Quorum: model.SetOf(1)}}, 2)

	b, err := wire.EncodePayload(dag.GraphPayload{G: g})
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	g2 := got.(dag.GraphPayload).G
	if g2.Len() != g.Len() {
		t.Fatalf("node count %d, want %d", g2.Len(), g.Len())
	}
	for i := 0; i < g.Len(); i++ {
		if g2.Node(i).Key() != g.Node(i).Key() || g2.Node(i).D.String() != g.Node(i).D.String() {
			t.Errorf("node %d differs: %v vs %v", i, g2.Node(i), g.Node(i))
		}
		for j := 0; j < i; j++ {
			if g2.HasEdge(j, i) != g.HasEdge(j, i) {
				t.Errorf("edge %d→%d differs", j, i)
			}
		}
	}
}

func TestRoundTripMessage(t *testing.T) {
	m := &model.Message{From: 2, To: 0, Seq: 99, Payload: consensus.ReportPayload{K: 4, V: 1}}
	b, err := wire.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.To != m.To || got.Seq != m.Seq || !reflect.DeepEqual(got.Payload, m.Payload) {
		t.Errorf("message round trip: %#v vs %#v", got, m)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,             // empty
		{0xFF},          // unknown tag
		{1, 0x80},       // truncated varint in LEAD
		{4, 3, 0, 0, 0}, // trailing bytes after SAW
	}
	for i, b := range cases {
		if _, err := wire.DecodePayload(b); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
	if _, err := wire.DecodeValue([]byte{0xFE}); err == nil {
		t.Error("unknown value tag must error")
	}
}

// TestHistoryFrameSize: a frame without adds is one varint, To<<1 (PROPD:
// To<<2 | HasV<<1), one byte while To is small; a frame with adds adds a
// count and the adds, and no frame carries Base.
func TestHistoryFrameSize(t *testing.T) {
	for _, tc := range []struct {
		pl   model.Payload
		want int
	}{
		{consensus.LeadDeltaPayload{Delta: quorum.Delta{Base: 63, To: 63}}, 1},
		{consensus.LeadDeltaPayload{Delta: quorum.Delta{Base: 64, To: 64}}, 2},
		{consensus.ProposalDeltaPayload{HasV: true, Delta: quorum.Delta{Base: 31, To: 31}}, 1},
		{consensus.ProposalDeltaPayload{Delta: quorum.Delta{Base: 32, To: 32}}, 2},
		{consensus.LeadDeltaPayload{Delta: sampleDelta()}, 1 + 1 + 2*2},
		{consensus.ProposalDeltaPayload{HasV: true, Delta: sampleDelta()}, 1 + 1 + 2*2},
		{consensus.ReportPayload{K: 1, V: 2}, 0},
	} {
		got, err := wire.HistoryFrameLen(tc.pl)
		if err != nil || got != tc.want {
			t.Errorf("%v: frame of %d bytes (err %v), want %d", tc.pl, got, err, tc.want)
		}
		if tc.want == 0 {
			continue
		}
		// The frame is the tail of the payload's encoding, behind tag, K, V.
		b, err := wire.EncodePayload(tc.pl)
		if err != nil || len(b) != 3+tc.want {
			t.Errorf("%v encodes in %d bytes (err %v), want 3 + its %d-byte frame", tc.pl, len(b), err, tc.want)
		}
	}
}

// frameRejects are history frames no delta has, each behind LEADD's tag
// and K = V = 0: each must fail to decode. The fuzz target starts from
// them too.
func frameRejects(tb testing.TB) map[string][]byte {
	tb.Helper()
	b, err := wire.EncodePayload(consensus.LeadDeltaPayload{})
	if err != nil {
		tb.Fatal(err)
	}
	lead := b[:len(b)-1] // tag, K, V
	frame := func(parts ...byte) []byte { return append(append([]byte{}, lead...), parts...) }
	return map[string][]byte{
		// To = 5 with the has-adds bit, but a count of 0.
		"has-adds with count 0": frame(5<<1|1, 0),
		// To = 1 and two adds: Base would be negative.
		"count above To": frame(1<<1|1, 2, 0, 1, 1, 1),
		// To = 200 and 200 adds claimed with one byte behind them: rejected
		// before allocating the adds.
		"count above remaining bytes": frame(0x91, 0x03, 200, 1),
		"add for process 64":          frame(1<<1|1, 1, 64, 1),
		"truncated count":             frame(1<<1 | 1),
	}
}

// TestDeltaPayloadDecodeRejectsForgedCount: a frame's add count must be
// at least 1 when the has-adds bit is set, at most To and at most what the
// remaining bytes can hold — checked before the adds are allocated — and
// every add must name a process below MaxProcesses.
func TestDeltaPayloadDecodeRejectsForgedCount(t *testing.T) {
	for name, b := range frameRejects(t) {
		if got, err := wire.DecodePayload(b); err == nil {
			t.Errorf("%s: %v decoded as %v", name, b, got)
		}
	}
}

// TestDeltaEncodeRejectsBrokenSpan: the encoder takes only deltas that
// span exactly their adds, as every quorum.Versioned delta does, since the
// decoder rebuilds Base from To and the count.
func TestDeltaEncodeRejectsBrokenSpan(t *testing.T) {
	for name, d := range map[string]quorum.Delta{
		"adds short of the span":  {Base: 2, To: 5, Adds: sampleDelta().Adds},
		"adds beyond the span":    {Base: 5, To: 6, Adds: sampleDelta().Adds},
		"no adds across the span": {Base: 0, To: 3},
		"base above To":           {Base: 7, To: 6},
		"To too large":            {Base: 1 << 63, To: 1 << 63},
	} {
		for _, pl := range []model.Payload{consensus.LeadDeltaPayload{Delta: d}, consensus.ProposalDeltaPayload{Delta: d}} {
			if _, err := wire.EncodePayload(pl); err == nil {
				t.Errorf("%s: %v encoded", name, pl)
			}
		}
	}
}

func TestDeltaPayloadsNeverSupersede(t *testing.T) {
	// Collapsing a delta frame in an inbox would break the receiver's
	// version chain; the envelope must say so without decoding the body.
	for _, pl := range []model.Payload{
		consensus.LeadDeltaPayload{K: 1, Delta: sampleDelta()},
		consensus.ProposalDeltaPayload{K: 1, Delta: sampleDelta()},
	} {
		if _, ok := pl.(model.SupersededPayload); ok {
			t.Fatalf("%T must not implement SupersededPayload", pl)
		}
		m := &model.Message{From: 1, To: 2, Seq: 3, Payload: pl}
		b, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		h, err := wire.PeekMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		if h.Kind != pl.Kind() || h.Supersedes {
			t.Errorf("peek of %T = %+v", pl, h)
		}
	}
}

// TestStampedSlotAck: the log's slot-wrapped ACK carries its awareness
// stamp behind K. A frame cut anywhere inside it — the stamp included — is
// rejected, the plain ACK's bytes are what they always were (standalone
// A_nuc never ships a stamp), and the envelope peek reports the kind
// without superseding: the receiver keeps the smallest stamp per member,
// so no stamped ACK may be collapsed away.
func TestStampedSlotAck(t *testing.T) {
	ack := rsm.AckStampPayload{Q: model.SetOf(0, 2), K: 3, Stamp: 300}
	pl := rsm.SlotPayload{Slot: 299, Inner: ack}
	b, err := wire.EncodePayload(pl)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if got, err := wire.DecodePayload(b[:cut]); err == nil {
			t.Errorf("frame truncated to %d of %d bytes decoded as %#v", cut, len(b), got)
		}
	}
	if _, err := wire.DecodePayload(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("trailing byte after the stamp must be rejected")
	}

	plain, err := wire.EncodePayload(consensus.AckPayload{Q: ack.Q, K: ack.K})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{5, 5, 6}; !bytes.Equal(plain, want) {
		t.Errorf("plain ACK encodes as %v, want %v: the stamp must not leak into standalone A_nuc's frame", plain, want)
	}

	if _, ok := model.Payload(ack).(model.SupersededPayload); ok {
		t.Fatal("AckStampPayload must not implement SupersededPayload")
	}
	frame, err := wire.EncodeMessage(&model.Message{From: 2, To: 0, Seq: 11, Payload: pl})
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.PeekMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := (wire.MessageHead{From: 2, To: 0, Seq: 11, Kind: "SACK"}); h != want {
		t.Errorf("peek = %+v, want %+v", h, want)
	}
}

type alienPayload struct{}

func (alienPayload) Kind() string   { return "ALIEN" }
func (alienPayload) String() string { return "ALIEN" }

func TestEncodeUnknownPayload(t *testing.T) {
	if _, err := wire.EncodePayload(alienPayload{}); err == nil {
		t.Error("unknown payload type must error")
	}
}

func TestRoundTripRSMPayloads(t *testing.T) {
	payloads := []model.Payload{
		rsm.SlotPayload{Slot: 3, Inner: consensus.ReportPayload{K: 1, V: 9}},
		rsm.SlotPayload{Slot: 0, Inner: consensus.LeadPayload{K: 2, V: -1, Hist: sampleHistories()}},
		rsm.ProgressPayload{Slot: 7},
		rsm.CommandPayload{Cmd: 42},
		rsm.SlotPayload{Slot: 5, Inner: consensus.LeadDeltaPayload{K: 2, V: -1, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 6, Inner: consensus.ProposalDeltaPayload{K: 4, V: 0, HasV: true, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 9, Inner: rsm.AckStampPayload{Q: model.SetOf(0, 1, 3), K: 2, Stamp: 10}},
		rsm.SlotPayload{Slot: 300, Inner: rsm.AckStampPayload{Q: model.SetOf(63), K: 1, Stamp: 1 << 20}},
		rsm.SlotPayload{Slot: 127, Inner: consensus.ReportPayload{K: 1, V: 2}},
		rsm.ProgressPayload{Slot: 128},
		sampleBundle(),
		rsm.Bundle{rsm.ProgressPayload{Slot: 64}, rsm.SlotPayload{Slot: 64, Inner: consensus.LeadDeltaPayload{K: 1, V: 3, Delta: sampleDelta()}}},
	}
	for _, pl := range payloads {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		got, err := wire.DecodePayload(b)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		if !reflect.DeepEqual(got, pl) {
			t.Errorf("%T round trip: got %#v, want %#v", pl, got, pl)
		}
	}
}

// TestSlotVarint: a slot number is a plain varint — one byte below 128 —
// and the encoder rejects a negative one, bare, wrapped or bundled.
func TestSlotVarint(t *testing.T) {
	for slot, want := range map[int]int{0: 2, 127: 2, 128: 3, 1 << 14: 4} {
		b, err := wire.EncodePayload(rsm.ProgressPayload{Slot: slot})
		if err != nil || len(b) != want {
			t.Errorf("PRGR(%d) encodes in %d bytes (err %v), want %d", slot, len(b), err, want)
		}
	}
	rep := consensus.ReportPayload{K: 1, V: 2}
	for _, pl := range []model.Payload{
		rsm.ProgressPayload{Slot: -1},
		rsm.SlotPayload{Slot: -1, Inner: rep},
		rsm.Bundle{rsm.SlotPayload{Slot: -2, Inner: rep}, rsm.SlotPayload{Slot: -1, Inner: rep}},
	} {
		if _, err := wire.EncodePayload(pl); err == nil {
			t.Errorf("%v encoded", pl)
		}
	}
}

// TestCommandOpInClientVarint: a command's op rides in the low three bits
// of its client varint, so a small command costs four bytes; an op ≥ 7 is
// escaped into a byte of its own, and the decoder rejects an escape for
// an op that fits.
func TestCommandOpInClientVarint(t *testing.T) {
	small := serve.Command{Client: 15, Seq: 1, Op: serve.OpQPop, Key: 1, Val: 1}
	b, err := wire.EncodePayload(serve.BatchPayload{ID: 1, Cmds: []serve.Command{small}})
	if err != nil || len(b) != 3+4 {
		t.Errorf("one small command's batch encodes in %d bytes (err %v), want 3 + 4", len(b), err)
	}
	for _, op := range []byte{7, 8, 255} {
		c := small
		c.Op = op
		pl := serve.BatchPayload{ID: 1, Cmds: []serve.Command{c}}
		b, err := wire.EncodePayload(pl)
		if err != nil || len(b) != 3+5 {
			t.Fatalf("op %d: batch encodes in %d bytes (err %v), want 3 + 5", op, len(b), err)
		}
		if got, err := wire.DecodePayload(b); err != nil || !reflect.DeepEqual(got, model.Payload(pl)) {
			t.Errorf("op %d: round trip gave %v (err %v)", op, got, err)
		}
	}
	// tag, ID, count, then the client varint: op 4 escaped.
	escaped := append([]byte{b[0], b[1], b[2], 15<<3 | 7, serve.OpQPop}, b[4:]...)
	if got, err := wire.DecodePayload(escaped); err == nil {
		t.Errorf("escaped op 4 decoded as %v", got)
	}
}

func TestRoundTripServePayloads(t *testing.T) {
	payloads := []model.Payload{
		serve.BatchPayload{ID: serve.BatchID(0, 0)},
		serve.BatchPayload{ID: serve.BatchID(2, 5), Cmds: []serve.Command{
			{Client: 1, Seq: 1, Op: serve.OpPut, Key: 9, Val: -42},
			{Client: 4100, Seq: 1 << 40, Op: serve.OpQPop, Key: 1 << 50, Val: 1<<62 - 1},
		}},
		serve.RequestPayload{Client: 3, Seq: 11, Op: serve.OpGet, Key: 12, Lin: true, T0: 1722000000123456789},
		serve.RequestPayload{Client: 1, Seq: 2, Op: serve.OpPut, Val: -1},
		serve.ReplyPayload{Client: 3, Seq: 11, Status: serve.StatusDup, Val: -77, T0: -5},
		serve.ReplyPayload{Client: 9, Seq: 1, Status: serve.StatusRetired},
	}
	for _, pl := range payloads {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		got, err := wire.DecodePayload(b)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		if !reflect.DeepEqual(got, pl) {
			t.Errorf("%T round trip: got %#v, want %#v", pl, got, pl)
		}
	}
}

func TestBatchDecodeRejectsForgedCount(t *testing.T) {
	// An empty batch encodes as tag, id, count=0. Splice an absurd count
	// over the trailing zero: the decoder must reject it before allocating.
	good, err := wire.EncodePayload(serve.BatchPayload{ID: serve.BatchID(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	forged := append(append([]byte{}, good[:len(good)-1]...), 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := wire.DecodePayload(forged); err == nil {
		t.Fatal("forged batch command count must be rejected")
	}
	// Four bytes is a command's minimum, so a batch of minimal commands
	// passes the guard.
	minimal := serve.BatchPayload{ID: 1, Cmds: make([]serve.Command, 5)}
	b, err := wire.EncodePayload(minimal)
	if err != nil || len(b) != 3+5*4 {
		t.Fatalf("five minimal commands encode in %d bytes (err %v), want 3 + 5 × 4", len(b), err)
	}
	if got, err := wire.DecodePayload(b); err != nil || !reflect.DeepEqual(got, model.Payload(minimal)) {
		t.Errorf("five minimal commands decode as %v (err %v)", got, err)
	}
}

func TestServePayloadsNeverSupersede(t *testing.T) {
	// Batch bodies each carry distinct commands, and the client frames are
	// point-to-point request/response — inbox collapsing must skip them all.
	for _, pl := range []model.Payload{
		serve.BatchPayload{ID: serve.BatchID(0, 1)},
		serve.RequestPayload{Client: 1, Seq: 1},
		serve.ReplyPayload{Client: 1, Seq: 1},
	} {
		if _, ok := pl.(model.SupersededPayload); ok {
			t.Fatalf("%T must not implement SupersededPayload", pl)
		}
		b, err := wire.EncodeMessage(&model.Message{From: 0, To: 1, Seq: 3, Payload: pl})
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		h, err := wire.PeekMessage(b)
		if err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
		if h.Kind != pl.Kind() || h.Supersedes {
			t.Errorf("peek of %T = %+v", pl, h)
		}
	}
}

// TestPayloadFrameRoundTrip: the client-protocol framing (cmd/nucd ↔
// cmd/nucload) round-trips payloads through a byte stream, and a frame
// claiming an absurd length — on either protocol's reader — is rejected
// without allocation or panic.
func TestPayloadFrameRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	payloads := []model.Payload{
		serve.RequestPayload{Client: 2, Seq: 1, Op: serve.OpPut, Key: 7, Val: 700},
		serve.RequestPayload{Client: 2, Seq: 2, Op: serve.OpGet, Key: 7, Lin: true},
		serve.ReplyPayload{Client: 2, Seq: 2, Status: serve.StatusOK, Val: 700},
	}
	for _, pl := range payloads {
		if err := wire.WritePayloadFrame(&stream, pl); err != nil {
			t.Fatalf("%T: %v", pl, err)
		}
	}
	r := bufio.NewReader(&stream)
	for _, want := range payloads {
		got, err := wire.ReadPayloadFrame(r)
		if err != nil {
			t.Fatalf("%T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame round trip: got %#v, want %#v", got, want)
		}
	}
	if _, err := wire.ReadPayloadFrame(r); err == nil {
		t.Fatal("empty stream must error")
	}
	for _, size := range []uint64{wire.MaxFrameSize + 1, 1 << 63} {
		huge := binary.AppendUvarint(nil, size)
		if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
			t.Fatalf("frame length %d must be rejected", size)
		}
		if _, err := wire.ReadPayloadFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
			t.Fatalf("payload frame length %d must be rejected", size)
		}
	}
}

// sampleBundle is what one outer step of a serving replica might send one
// peer: a batch body and the command naming it, a progress announcement,
// and slot traffic for slots 70 and 71 (one-byte slot varints) that changes
// slot, returns to one, and is interrupted by a slot-less item. Three of its
// slot items follow a slot item of their own slot and travel unwrapped, and
// two — one of a kind that is never elided — follow one of the slot below
// and travel behind the one-byte slot switch.
func sampleBundle() rsm.Bundle {
	return rsm.Bundle{
		serve.BatchPayload{ID: serve.BatchID(2, 5), Cmds: []serve.Command{{Client: 4, Seq: 9, Op: serve.OpPut, Key: 1, Val: -3}}},
		rsm.CommandPayload{Cmd: serve.BatchID(2, 5)},
		rsm.ProgressPayload{Slot: 70},
		rsm.SlotPayload{Slot: 70, Inner: consensus.LeadDeltaPayload{K: 1, V: 7, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 70, Inner: consensus.ReportPayload{K: 1, V: 7}},
		rsm.SlotPayload{Slot: 71, Inner: consensus.ProposalDeltaPayload{K: 2, V: 7, HasV: true, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 71, Inner: consensus.SawPayload{Q: model.SetOf(0, 2)}},
		rsm.CommandPayload{Cmd: 12},
		rsm.SlotPayload{Slot: 71, Inner: rsm.AckStampPayload{Q: model.SetOf(1, 2), K: 2, Stamp: 72}},
		rsm.SlotPayload{Slot: 70, Inner: consensus.ReportPayload{K: 2, V: 7}},
		rsm.SlotPayload{Slot: 71, Inner: consensus.AckPayload{Q: model.SetOf(1), K: 2}},
	}
}

// TestRoundTripBundle: a bundle round-trips as a payload and as a whole
// frame, whose envelope peeks as BNDL and never supersedes, and its
// encoding is one tag byte plus its items', less the slot tag and one-byte
// slot varint of each item that follows a slot item of its own slot, and
// less the one-byte slot varint of each that follows one of the slot below.
func TestRoundTripBundle(t *testing.T) {
	b := sampleBundle()
	enc, err := wire.EncodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("bundle round trip: got %v, want %v", got, b)
	}
	size := 1
	for _, pl := range b {
		item, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		size += len(item)
	}
	// 56 = 1 tag + 63 bytes of items − 3 elided wrappers × 2 − 2 slot
	// switches × 1 (a 2-byte wrapper for a 1-byte tagSlotNext).
	const elided, switched, want = 3, 2, 56
	if size-elided*2-switched*1 != want || len(enc) != want {
		t.Errorf("bundle encodes in %d bytes from %d of tag and items, want %d: %d wrappers of 2 bytes elided, %d shrunk to 1",
			len(enc), size, want, elided, switched)
	}

	frame, err := wire.AppendMessage(nil, &model.Message{From: 3, To: 1, Seq: 40, Payload: b})
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.PeekMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := (wire.MessageHead{From: 3, To: 1, Seq: 40, Kind: "BNDL"}); h != want {
		t.Errorf("peek = %+v, want %+v", h, want)
	}
	var m model.Message
	if err := wire.DecodeMessageInto(&m, frame); err != nil {
		t.Fatal(err)
	}
	if m.From != 3 || m.To != 1 || m.Seq != 40 || !reflect.DeepEqual(m.Payload, model.Payload(b)) {
		t.Errorf("frame round trip: got %v", &m)
	}
}

// bundleRejects are encodings no bundle has: each must fail to decode. The
// fuzz target starts from them too.
func bundleRejects(tb testing.TB) map[string][]byte {
	tb.Helper()
	enc := func(pl model.Payload) []byte {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	tag := enc(rsm.Bundle{rsm.CommandPayload{Cmd: 1}, rsm.CommandPayload{Cmd: 2}})[0]
	cmd, rep := enc(rsm.CommandPayload{Cmd: 1}), enc(consensus.ReportPayload{K: 1, V: 2})
	slotted := enc(rsm.SlotPayload{Slot: 1, Inner: consensus.ReportPayload{K: 1, V: 2}})
	next := enc(rsm.Bundle{
		rsm.SlotPayload{Slot: 1, Inner: consensus.ReportPayload{K: 1, V: 2}},
		rsm.SlotPayload{Slot: 2, Inner: consensus.ReportPayload{K: 1, V: 2}},
	})[len(slotted)+1]
	join := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{{tag}}, parts...), nil) }
	return map[string][]byte{
		"empty bundle":                 join(),
		"one-item bundle":              join(cmd),
		"slot item before any slot":    join(cmd, rep),
		"bundle inside a bundle":       join(cmd, join(cmd, cmd)),
		"unknown tag inside a bundle":  join(cmd, []byte{0xEE}),
		"truncated item inside bundle": join(cmd, rep[:len(rep)-1]),
		"slot switch before any slot":  join(cmd, []byte{next}, rep),
		"slot switch ending a bundle":  join(slotted, []byte{next}),
		"slot switch after a switch":   join(slotted, []byte{next, next}, rep),
		"slot switch inside a slot":    join(cmd, slotted[:len(slotted)-len(rep)], []byte{next}, rep),
		"slot switch outside a bundle": append([]byte{next}, rep...),
	}
}

func TestBundleRejects(t *testing.T) {
	for name, b := range bundleRejects(t) {
		if got, err := wire.DecodePayload(b); err == nil {
			t.Errorf("%s: %v decoded as %v", name, b, got)
		}
	}
	for name, b := range map[string]rsm.Bundle{
		"one-item bundle":        {rsm.CommandPayload{Cmd: 1}},
		"bundle inside a bundle": {rsm.CommandPayload{Cmd: 1}, rsm.Bundle{rsm.CommandPayload{Cmd: 2}, rsm.CommandPayload{Cmd: 3}}},
		"slot kind outside slot": {rsm.CommandPayload{Cmd: 1}, consensus.ReportPayload{K: 1, V: 2}},
	} {
		if _, err := wire.EncodePayload(b); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	if _, err := wire.EncodePayload(rsm.SlotPayload{Slot: 1, Inner: sampleBundle()}); err == nil {
		t.Error("a bundle inside a slot payload encoded")
	}
}
