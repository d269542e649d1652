package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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

// slotted wraps pl in slot 1, as the log sends a peer its slot traffic.
func slotted(pl model.Payload) rsm.SlotPayload { return rsm.SlotPayload{Slot: 1, Inner: pl} }

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
		// The log's delta payloads travel as slot items only.
		slotted(consensus.LeadDeltaPayload{K: 3, V: -7, Delta: sampleDelta()}),
		slotted(consensus.LeadDeltaPayload{K: 1, V: 0, Delta: quorum.Delta{Base: 2, To: 2}}),
		slotted(consensus.ProposalDeltaPayload{K: 5, V: 9, HasV: true, Delta: sampleDelta()}),
		slotted(consensus.ProposalDeltaPayload{K: 5, Delta: quorum.Delta{To: 1, Adds: []quorum.DeltaEntry{{R: 1, Q: model.SetOf(1)}}}}),
		slotted(consensus.ProposalDeltaPayload{K: 5, V: 2, HasV: true, Delta: quorum.Delta{Base: 300, To: 300}}),
		slotted(consensus.LeadDeltaPayload{K: 2, V: 1, Delta: quorum.Delta{Base: 0, To: 0}}),
		// A leader announcement rides the traffic going to its peer.
		rsm.Bundle{slotted(consensus.ReportPayload{K: 1, V: 3}), rsm.FollowPayload{Leader: 2}, rsm.ProgressPayload{Slot: 1}},
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

// TestRoundTripValues: every failure-detector value kind round-trips as the
// value of a DAG node, the one place a value travels.
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
		g := dag.NewGraph()
		g.AddSample(1, v, 1)
		b, err := wire.EncodePayload(dag.GraphPayload{G: g})
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		got, err := wire.DecodePayload(b)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if gp, ok := got.(dag.GraphPayload); !ok || gp.G.Len() != 1 || !reflect.DeepEqual(gp.G.Node(0).D, v) {
			t.Errorf("%T round trip: got %#v, want a node of value %#v", v, got, v)
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

// TestRoundTripMessage: a peer frame is its payload's encoding and nothing
// else, and its decode fills in only the Payload of the message it is
// given: From, To and Seq are the link's to name, not the frame's.
func TestRoundTripMessage(t *testing.T) {
	m := &model.Message{From: 2, To: 0, Seq: 99, Payload: consensus.ReportPayload{K: 4, V: 1}}
	b, err := wire.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if pl, err := wire.EncodePayload(m.Payload); err != nil || !bytes.Equal(b, pl) {
		t.Errorf("frame %x, payload %x (err %v): a frame is its payload alone", b, pl, err)
	}
	got := model.Message{From: 1, To: 3, Seq: 7}
	if err := wire.DecodeMessageInto(&got, b); err != nil {
		t.Fatal(err)
	}
	if got.From != 1 || got.To != 3 || got.Seq != 7 || !reflect.DeepEqual(got.Payload, m.Payload) {
		t.Errorf("frame of %v decoded into p1#7→p3 as %v", m, &got)
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
	// A one-node graph ends in its node's value tag: node 0 has no bitset.
	g := dag.NewGraph()
	g.AddSample(0, fd.NullValue{}, 1)
	b, err := wire.EncodePayload(dag.GraphPayload{G: g})
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] = 0xFE
	if _, err := wire.DecodePayload(b); err == nil {
		t.Error("unknown value tag must error")
	}
}

// pairsDeep is a one-node DAG snapshot whose node's value is depth pairs,
// each the first element of the next, around nulls: the pair tags, then
// depth+1 null tags. A decoder recurses once per pair tag.
func pairsDeep(tb testing.TB, depth int) []byte {
	tb.Helper()
	g := dag.NewGraph()
	g.AddSample(0, fd.PairValue{First: fd.NullValue{}, Second: fd.NullValue{}}, 1)
	b, err := wire.EncodePayload(dag.GraphPayload{G: g})
	if err != nil {
		tb.Fatal(err)
	}
	// A one-node graph ends in its node's value: here pair, null, null.
	node, pair, null := b[:len(b)-3], b[len(b)-3], b[len(b)-1]
	out := append([]byte{}, node...)
	out = append(out, bytes.Repeat([]byte{pair}, depth)...)
	return append(out, bytes.Repeat([]byte{null}, depth+1)...)
}

// pairFlood is a peer frame of the largest size a link reads whose one DAG
// node's value is pair tags to the end.
func pairFlood(tb testing.TB) []byte {
	tb.Helper()
	b := pairsDeep(tb, 1)
	return append(b, bytes.Repeat(b[len(b)-3:len(b)-2], wire.MaxFrameSize-len(b))...)
}

// TestPairNestingBound: a failure-detector value nests at most 8 pairs
// deep, both ways. A value 8 pairs deep round-trips; one 9 deep neither
// encodes nor decodes, and a 1 MiB frame of pair tags fails after 9 of
// them instead of recursing once per byte.
func TestPairNestingBound(t *testing.T) {
	nested := func(depth int) model.FDValue {
		var v model.FDValue = fd.NullValue{}
		for i := 0; i < depth; i++ {
			v = fd.PairValue{First: v, Second: fd.NullValue{}}
		}
		return v
	}
	graph := func(depth int) dag.GraphPayload {
		g := dag.NewGraph()
		g.AddSample(0, nested(depth), 1)
		return dag.GraphPayload{G: g}
	}
	b, err := wire.EncodePayload(graph(8))
	if err != nil || !bytes.Equal(b, pairsDeep(t, 8)) {
		t.Fatalf("8 pairs deep encode as %x (err %v), want %x", b, err, pairsDeep(t, 8))
	}
	if got, err := wire.DecodePayload(b); err != nil || !reflect.DeepEqual(got, model.Payload(graph(8))) {
		t.Errorf("8 pairs deep decode as %v (err %v)", got, err)
	}
	if b, err := wire.EncodePayload(graph(9)); err == nil {
		t.Errorf("9 pairs deep encoded as %x", b)
	}
	for name, b := range map[string][]byte{"9 pairs deep": pairsDeep(t, 9), "1 MiB of pair tags": pairFlood(t)} {
		if got, err := wire.DecodePayload(b); err == nil {
			t.Errorf("%s decoded as %v", name, got)
		}
		var m model.Message
		if err := wire.DecodeMessageInto(&m, b); err == nil {
			t.Errorf("a frame %s decoded as %v", name, &m)
		}
	}
}

// repeatedSample is a DAG snapshot of two null-valued nodes, both the
// sample (p0, k0), and node 1's empty bitset word.
var repeatedSample = []byte{8, 2, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}

// TestGraphRejectsRepeatedSample: a snapshot that names one sample twice is
// forged and fails to decode, as a payload or as a peer frame. dag.Graph panics on a repeated
// sample, and netrun decodes on a process's step goroutine, so a decoder
// that built the graph first would let one frame kill the whole process.
func TestGraphRejectsRepeatedSample(t *testing.T) {
	if pl, err := wire.DecodePayload(repeatedSample); err == nil {
		t.Errorf("%x decoded as %v", repeatedSample, pl)
	}
	var m model.Message
	if err := wire.DecodeMessageInto(&m, repeatedSample); err == nil {
		t.Errorf("a frame of %x decoded as %v", repeatedSample, &m)
	}
}

// TestTruncatedSeedsAreRejected: no proper prefix of a fuzz seed decodes,
// as a payload or as a peer frame. A decode that runs out of input returns its
// first error, never the zeros its reads return after it. The one prefix
// that does decode is a bundle cut between two items from its second on:
// that is the bundle of the items before the cut.
func TestTruncatedSeedsAreRejected(t *testing.T) {
	type seed struct {
		b    []byte
		kept map[int]model.Payload // prefix length → what it decodes to
	}
	var seeds []seed
	for _, pl := range seedPayloads() {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		s := seed{b: b, kept: map[int]model.Payload{}}
		if bundle, ok := pl.(rsm.Bundle); ok {
			for k := 2; k < len(bundle); k++ {
				head, err := wire.EncodePayload(bundle[:k])
				if err != nil || !bytes.HasPrefix(b, head) {
					t.Fatalf("%v: its first %d items encode as %x (err %v), not a prefix of %x", bundle, k, head, err, b)
				}
				s.kept[len(head)] = bundle[:k]
			}
		}
		seeds = append(seeds, s)
	}
	for _, b := range seedRejects(t) {
		seeds = append(seeds, seed{b: b})
	}
	for _, s := range seeds {
		for cut := 0; cut < len(s.b); cut++ {
			want, kept := s.kept[cut]
			pl, perr := wire.DecodePayload(s.b[:cut])
			if kept != (perr == nil) || kept && !reflect.DeepEqual(pl, want) {
				t.Errorf("%x cut to %d bytes decodes as %v (err %v), want %v", s.b, cut, pl, perr, want)
			}
			var m model.Message
			err := wire.DecodeMessageInto(&m, s.b[:cut])
			if kept != (err == nil) || kept && !reflect.DeepEqual(m.Payload, want) {
				t.Errorf("frame %x cut to %d bytes decodes as %v (err %v), want %v", s.b, cut, &m, err, want)
			}
		}
	}
}

// TestForgedQuorumCountStopsAtOnce: a plain LEAD whose one process claims
// 2^62 quorums, with two bytes behind the count, is rejected at once. The
// count is bounded by the input left, and every loop over a decoded count
// stops at the first error, so a forged count cannot keep the decoder
// reading zeros.
func TestForgedQuorumCountStopsAtOnce(t *testing.T) {
	lead, err := wire.EncodePayload(consensus.LeadPayload{K: 1, V: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte{}, lead[:len(lead)-1]...) // tag, K, V: the histories follow
	b = append(b, 1)                             // for one process,
	b = binary.AppendUvarint(b, 1<<62)           // which claims 2^62 quorums
	b = append(b, 1, 2)                          // and has two bytes of them
	if pl, err := wire.DecodePayload(b); err == nil {
		t.Errorf("%x decoded as %v", b, pl)
	}
}

// TestHistoryFrameSize: a frame without adds is one varint, To<<1, one
// byte while To is below 64; a frame with adds adds a count and the adds,
// and no frame carries Base. HistoryFrameLen counts the frames of a whole
// send as encoded, so a frame a bundled slot item inherits counts 0.
func TestHistoryFrameSize(t *testing.T) {
	lead := func(to uint64) rsm.SlotPayload {
		return slotted(consensus.LeadDeltaPayload{K: 1, V: 2, Delta: quorum.Delta{Base: to, To: to}})
	}
	prop := func(slot int, d quorum.Delta) rsm.SlotPayload {
		return rsm.SlotPayload{Slot: slot, Inner: consensus.ProposalDeltaPayload{K: 1, V: 2, HasV: true, Delta: d}}
	}
	for _, tc := range []struct {
		pl   model.Payload
		want int
	}{
		{lead(63), 1},
		{lead(64), 2},
		{prop(1, quorum.Delta{Base: 63, To: 63}), 1},
		{prop(1, quorum.Delta{Base: 64, To: 64}), 2},
		{slotted(consensus.LeadDeltaPayload{K: 1, V: 2, Delta: sampleDelta()}), 1 + 1 + 2*2},
		{prop(1, sampleDelta()), 1 + 1 + 2*2},
		{slotted(consensus.ReportPayload{K: 1, V: 2}), 0},
		{rsm.ProgressPayload{Slot: 3}, 0},
		// The PROPD's frame has no adds and the LEADD's To: it is inherited.
		{rsm.Bundle{lead(6), prop(2, quorum.Delta{Base: 6, To: 6})}, 1},
		// A frame with adds is never inherited, nor one with another To.
		{rsm.Bundle{lead(6), prop(2, sampleDelta()), prop(3, quorum.Delta{Base: 7, To: 7})}, 1 + 6 + 1},
	} {
		got, err := wire.HistoryFrameLen(tc.pl)
		if err != nil || got != tc.want {
			t.Errorf("%v: frames of %d bytes (err %v), want %d", tc.pl, got, err, tc.want)
		}
	}
	// A bare slot item inherits only the initial round 1, so its frame is
	// the tail of its encoding behind the head byte, the one-byte slot and
	// V — and PROPD without a value has no V.
	for _, tc := range []struct {
		pl    rsm.SlotPayload
		ahead int
	}{
		{lead(64), 3},
		{prop(1, sampleDelta()), 3},
		{slotted(consensus.ProposalDeltaPayload{K: 1, Delta: sampleDelta()}), 2},
	} {
		frame, _ := wire.HistoryFrameLen(tc.pl)
		b, err := wire.EncodePayload(tc.pl)
		if err != nil || len(b) != tc.ahead+frame {
			t.Errorf("%v encodes in %d bytes (err %v), want %d + its %d-byte frame", tc.pl, len(b), err, tc.ahead, frame)
		}
	}
}

// frameRejects are history frames no delta has, each behind a bare slot
// LEADD's head byte, slot and V: each must fail to decode. The fuzz target
// starts from them too.
func frameRejects(tb testing.TB) map[string][]byte {
	tb.Helper()
	b, err := wire.EncodePayload(slotted(consensus.LeadDeltaPayload{K: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	lead := b[:len(b)-1] // head, slot, V
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
// decoder rebuilds Base from To and the count — an inherited frame's too.
func TestDeltaEncodeRejectsBrokenSpan(t *testing.T) {
	for name, d := range map[string]quorum.Delta{
		"adds short of the span":  {Base: 2, To: 5, Adds: sampleDelta().Adds},
		"adds beyond the span":    {Base: 5, To: 6, Adds: sampleDelta().Adds},
		"no adds across the span": {Base: 0, To: 3},
		"base above To":           {Base: 7, To: 6},
		"To too large":            {Base: 1 << 63, To: 1 << 63},
	} {
		for _, pl := range []model.Payload{
			slotted(consensus.LeadDeltaPayload{Delta: d}),
			slotted(consensus.ProposalDeltaPayload{Delta: d}),
			// Behind a frame of d's To, d would be inherited if it spanned.
			rsm.Bundle{slotted(consensus.LeadDeltaPayload{Delta: quorum.Delta{Base: d.To, To: d.To}}), slotted(consensus.ProposalDeltaPayload{Delta: d})},
		} {
			if _, err := wire.EncodePayload(pl); err == nil {
				t.Errorf("%s: %v encoded", name, pl)
			}
		}
	}
}

// TestDeltaPayloadsNeverSupersede: collapsing a delta frame in an inbox
// would break the receiver's version chain, and a stamped ACK the
// smallest stamp per member, so the peek of every slot item of these six
// kinds reports its kind and no supersession without decoding the body.
// The seventh kind, a PRGR, supersedes bare: progress is monotone.
func TestDeltaPayloadsNeverSupersede(t *testing.T) {
	for _, pl := range []model.Payload{
		consensus.LeadDeltaPayload{K: 1, Delta: sampleDelta()},
		consensus.ProposalDeltaPayload{K: 1, V: 3, HasV: true, Delta: sampleDelta()},
		consensus.ProposalDeltaPayload{K: 2},
		consensus.ReportPayload{K: 1, V: 3},
		consensus.SawPayload{Q: model.SetOf(0, 1)},
		rsm.AckStampPayload{Q: model.SetOf(0, 1), K: 2, Stamp: 5},
	} {
		if _, ok := pl.(model.SupersededPayload); ok {
			t.Fatalf("%T must not implement SupersededPayload", pl)
		}
		m := &model.Message{From: 1, To: 2, Seq: 3, Payload: slotted(pl)}
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
	b, err := wire.EncodePayload(rsm.ProgressPayload{Slot: 9})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := wire.PeekMessage(b); err != nil || h != (wire.MessageHead{Kind: "PRGR", Supersedes: true}) {
		t.Errorf("peek of a bare PRGR %x = %+v (err %v), want a superseding PRGR", b, h, err)
	}
}

// TestStampedSlotAck: the log's slot-wrapped ACK carries its awareness
// stamp behind K, as its distance from the slot (here one byte, not two). A frame cut anywhere inside it — the stamp included — is
// rejected, the plain ACK's bytes are what they always were (standalone
// A_nuc never ships a stamp), and the peek reports the kind
// without superseding: the receiver keeps the smallest stamp per member,
// so no stamped ACK may be collapsed away.
func TestStampedSlotAck(t *testing.T) {
	ack := rsm.AckStampPayload{Q: model.SetOf(0, 2), K: 3, Stamp: 300}
	pl := rsm.SlotPayload{Slot: 299, Inner: ack}
	b, err := wire.EncodePayload(pl)
	if err != nil || len(b) != 6 {
		t.Fatalf("%v encodes as %x (err %v), want head, two-byte slot, Q, K and a one-byte stamp", pl, b, err)
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
	if want := (wire.MessageHead{Kind: "SACK"}); h != want {
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
		rsm.SlotPayload{Slot: 0, Inner: consensus.ProposalDeltaPayload{K: 2}},
		rsm.ProgressPayload{Slot: 7},
		rsm.CommandPayload{Cmd: 42},
		rsm.SlotPayload{Slot: 5, Inner: consensus.LeadDeltaPayload{K: 2, V: -1, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 6, Inner: consensus.ProposalDeltaPayload{K: 4, V: 0, HasV: true, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 9, Inner: rsm.AckStampPayload{Q: model.SetOf(0, 1, 3), K: 2, Stamp: 10}},
		rsm.SlotPayload{Slot: 300, Inner: rsm.AckStampPayload{Q: model.SetOf(63), K: 1, Stamp: 1 << 20}},
		// A stamp travels as its distance from the slot, which wraps.
		rsm.SlotPayload{Slot: math.MaxInt, Inner: rsm.AckStampPayload{Q: model.SetOf(1), K: 1, Stamp: math.MinInt}},
		rsm.SlotPayload{Slot: 0, Inner: rsm.AckStampPayload{Q: model.SetOf(1), K: 1, Stamp: math.MaxInt}},
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

// TestFollowPayload: a leader announcement is its tag and the leader's
// varint; the codec refuses a leader outside [0, MaxProcesses) either way,
// and the peek reports FLW without superseding: the receiver takes
// every announcement, in order.
func TestFollowPayload(t *testing.T) {
	for leader, want := range map[model.ProcessID]int{0: 2, 5: 2, model.MaxProcesses - 1: 2} {
		b, err := wire.EncodePayload(rsm.FollowPayload{Leader: leader})
		if err != nil || len(b) != want {
			t.Errorf("FLW(%d) encodes in %d bytes (err %v), want %d", leader, len(b), err, want)
		}
	}
	for _, leader := range []model.ProcessID{model.NoProcess, model.MaxProcesses} {
		if _, err := wire.EncodePayload(rsm.FollowPayload{Leader: leader}); err == nil {
			t.Errorf("FLW(%d) encoded", leader)
		}
	}
	flw, err := wire.EncodePayload(rsm.FollowPayload{Leader: 1})
	if err != nil {
		t.Fatal(err)
	}
	tag := flw[0]
	for name, b := range map[string][]byte{
		"leader MaxProcesses": {tag, model.MaxProcesses},
		"leader 2^32":         {tag, 0x80, 0x80, 0x80, 0x80, 0x10},
		"truncated leader":    {tag, 0x80},
		"no leader":           {tag},
	} {
		if got, err := wire.DecodePayload(b); err == nil {
			t.Errorf("%s: %x decoded as %v", name, b, got)
		}
	}
	if _, ok := model.Payload(rsm.FollowPayload{}).(model.SupersededPayload); ok {
		t.Fatal("FollowPayload must not implement SupersededPayload")
	}
	m, err := wire.EncodeMessage(&model.Message{From: 2, To: 0, Seq: 9, Payload: rsm.FollowPayload{Leader: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := wire.PeekMessage(m); err != nil || h.Kind != "FLW" || h.Supersedes {
		t.Errorf("peek of FLW = %+v (err %v)", h, err)
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
// and slot traffic for slots 70 and 71 that changes slot, returns to one
// and is interrupted by a slot-less item. Its slot items inherit what they
// can from the slot item before them: six their slot (the same or the next
// one up; the LEADD the PRGR's floor), three a round of 2 that their bare
// encoding would have to spell out, and the last one its empty history
// frame too.
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
		rsm.SlotPayload{Slot: 71, Inner: consensus.ProposalDeltaPayload{K: 2, Delta: quorum.Delta{Base: 6, To: 6}}},
	}
}

// TestRoundTripBundle: a bundle round-trips as a payload and as a peer
// frame, which peeks as BNDL and never supersedes, and its
// encoding is one tag byte plus its items' bare encodings, less each
// one-byte field an item inherits in the bundle but not bare. A bare slot
// item inherits only the initial round 1.
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
	// 44 = 1 tag + 53 bytes of bare items − 6 slot varints (LEADD on the
	// PRGR's floor, REP, PROPD, SAW and SACK on the slot before them, the
	// last PROPD on the next) − 3 K of 2 (SACK, the second REP, the last
	// PROPD) − 1 frame (the last PROPD's, empty at the To of the PROPD
	// before it).
	const slots, rounds, frames, want = 6, 3, 1, 44
	if size-slots-rounds-frames != want || len(enc) != want {
		t.Errorf("bundle encodes in %d bytes from %d of tag and bare items, want %d: %d slots, %d rounds and %d frames of 1 byte inherited",
			len(enc), size, want, slots, rounds, frames)
	}

	frame, err := wire.AppendMessage(nil, &model.Message{From: 3, To: 1, Seq: 40, Payload: b})
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.PeekMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := (wire.MessageHead{Kind: "BNDL"}); h != want {
		t.Errorf("peek = %+v, want %+v", h, want)
	}
	m := model.Message{From: 3, To: 1, Seq: 40}
	if err := wire.DecodeMessageInto(&m, frame); err != nil {
		t.Fatal(err)
	}
	if m.From != 3 || m.To != 1 || m.Seq != 40 || !reflect.DeepEqual(m.Payload, model.Payload(b)) {
		t.Errorf("frame round trip: got %v", &m)
	}
}

// The head byte of a slot item, spelled out as the package grammar has it:
// bit 7 the marker, bits 0–2 the kind, bits 3–4 the slot code, bit 5 the
// round and bit 6 the frame.
const (
	hLead, hPropV, hProp, hRep, hSaw, hSack, hPrgr byte = 0, 1, 2, 3, 4, 5, 6
	hExplicit, hSame, hNext, hDelta                byte = 0, 1, 2, 3
)

func head(kind, slot byte, round, frame bool) byte {
	h := 0x80 | kind | slot<<3
	if round {
		h |= 1 << 5
	}
	if frame {
		h |= 1 << 6
	}
	return h
}

// TestHeadByte: the head byte the encoder writes is the grammar's, for
// each kind, slot code and inheritance. A PRGR is a slot item whose slot is
// its floor, and a slot delta is written only where it is shorter than the
// slot's varint.
func TestHeadByte(t *testing.T) {
	lead := consensus.LeadDeltaPayload{K: 1, V: 2, Delta: quorum.Delta{Base: 1, To: 1}}
	for _, tc := range []struct {
		b    rsm.Bundle
		want []byte
	}{
		// Slot 1, round 1 inherited from the start, V 2, frame To 1; then
		// the same slot, K 3 and V 2, no frame.
		{rsm.Bundle{slotted(lead), slotted(consensus.ReportPayload{K: 3, V: 2})},
			[]byte{head(hLead, hExplicit, true, false), 1, 4, 2, head(hRep, hSame, false, false), 6, 4}},
		// PROPD with and without V, the second on the next slot with the
		// first's round and frame.
		{rsm.Bundle{
			slotted(consensus.ProposalDeltaPayload{K: 2, V: 5, HasV: true, Delta: quorum.Delta{Base: 3, To: 3}}),
			rsm.SlotPayload{Slot: 2, Inner: consensus.ProposalDeltaPayload{K: 2, Delta: quorum.Delta{Base: 3, To: 3}}},
		}, []byte{head(hPropV, hExplicit, false, false), 1, 4, 10, 6, head(hProp, hNext, true, true)}},
		// SAW (no K), then SACK on slot 9: explicit slot, round 1 inherited,
		// stamp 4 five below its slot (zigzag 9).
		{rsm.Bundle{slotted(consensus.SawPayload{Q: 3}), rsm.SlotPayload{Slot: 9, Inner: rsm.AckStampPayload{Q: 3, K: 1, Stamp: 4}}},
			[]byte{head(hSaw, hExplicit, false, false), 1, 3, head(hSack, hExplicit, true, false), 9, 3, 9}},
		// REP on slot 300 (a two-byte varint), the floor 298 two below it
		// (zigzag 3: one byte) and SAW on 301 three above the floor (zigzag
		// 6), then a PRGR on slot 5: a delta of −296 is no shorter than 5.
		{rsm.Bundle{
			rsm.SlotPayload{Slot: 300, Inner: consensus.ReportPayload{K: 1, V: 2}},
			rsm.ProgressPayload{Slot: 298},
			rsm.SlotPayload{Slot: 301, Inner: consensus.SawPayload{Q: 3}},
			rsm.ProgressPayload{Slot: 5},
		}, []byte{head(hRep, hExplicit, true, false), 0xAC, 0x02, 4, head(hPrgr, hDelta, false, false), 3,
			head(hSaw, hDelta, false, false), 6, 3, head(hPrgr, hExplicit, false, false), 5}},
	} {
		enc, err := wire.EncodePayload(tc.b)
		if err != nil || !bytes.Equal(enc[1:], tc.want) {
			t.Errorf("%v encodes as %x (err %v), want a bundle tag and %x", tc.b, enc, err, tc.want)
		}
	}
}

// genBundle draws a bundle of the shapes a step of the log sends a peer:
// slot items of the six kinds for slots base and base + 1 interleaved, now
// and then one for a slot far off, PRGR on base or base + 1, with BATCH,
// CMD and FLW between them; rounds that mostly repeat, from 1 on; history
// frames mostly empty, and then mostly at the last frame's To. seen counts
// the inheritance cases the bundle exercises inside itself, read off the
// grammar by the generator itself.
func genBundle(rng *rand.Rand, base int, seen map[string]int) rsm.Bundle {
	ver := uint64(rng.Intn(100))
	var (
		b                   rsm.Bundle
		slot, k             = 0, 1
		to                  uint64
		inSlot, hasK, hasTo bool
	)
	for n := 2 + rng.Intn(12); len(b) < n; {
		switch rng.Intn(12) {
		case 0:
			b = append(b, serve.BatchPayload{ID: serve.BatchID(model.ProcessID(rng.Intn(4)), rng.Intn(100)), Cmds: []serve.Command{
				{Client: uint32(rng.Intn(9)), Seq: uint64(rng.Intn(1000)), Op: byte(rng.Intn(9)), Key: uint64(rng.Intn(64)), Val: rng.Int63n(200) - 100},
			}})
			seen["BATCH"]++
			continue
		case 1:
			b = append(b, rsm.CommandPayload{Cmd: rng.Intn(1 << 20)})
			seen["CMD"]++
			continue
		case 2:
			if rng.Intn(2) == 0 {
				b = append(b, rsm.FollowPayload{Leader: model.ProcessID(rng.Intn(model.MaxProcesses))})
				seen["FLW"]++
				continue
			}
			s := base + rng.Intn(2)
			seen["slot "+slotCode(inSlot, slot, s)]++
			slot, inSlot = s, true
			b = append(b, rsm.ProgressPayload{Slot: s})
			seen["PRGR"]++
			continue
		}
		s := base + rng.Intn(2)
		if rng.Intn(10) == 0 {
			s = rng.Intn(1 << 20)
		}
		seen["slot "+slotCode(inSlot, slot, s)]++
		slot, inSlot = s, true
		kk := k
		if rng.Intn(4) == 0 {
			kk = 1 + rng.Intn(4)
		}
		var d quorum.Delta
		switch rng.Intn(4) {
		case 0, 1:
			if hasTo && rng.Intn(4) > 0 {
				ver = to
			}
			d = quorum.Delta{Base: ver, To: ver}
		case 2:
			ver += uint64(1 + rng.Intn(3))
			d = quorum.Delta{Base: ver, To: ver}
		default:
			adds := 1 + rng.Intn(3)
			d = quorum.Delta{Base: ver, To: ver + uint64(adds)}
			for i := 0; i < adds; i++ {
				d.Adds = append(d.Adds, quorum.DeltaEntry{R: model.ProcessID(rng.Intn(5)), Q: model.ProcessSet(1 + rng.Intn(31))})
			}
			ver = d.To
		}
		var inner model.Payload
		switch kind := rng.Intn(6); kind {
		case 0:
			inner = consensus.LeadDeltaPayload{K: kk, V: rng.Intn(9) - 4, Delta: d}
		case 1:
			inner = consensus.ProposalDeltaPayload{K: kk, V: rng.Intn(9) - 4, HasV: true, Delta: d}
			seen["PROPD with V"]++
		case 2:
			inner = consensus.ProposalDeltaPayload{K: kk, Delta: d}
			seen["PROPD without V"]++
		case 3:
			inner = consensus.ReportPayload{K: kk, V: rng.Intn(9) - 4}
		case 4:
			inner = consensus.SawPayload{Q: model.ProcessSet(1 + rng.Intn(31))}
		default:
			inner = rsm.AckStampPayload{Q: model.ProcessSet(1 + rng.Intn(31)), K: kk, Stamp: base + rng.Intn(4)}
		}
		seen[inner.Kind()]++
		if _, saw := inner.(consensus.SawPayload); !saw {
			switch {
			case kk == k && !hasK:
				seen["round 1 inherited from the start"]++
			case kk == k:
				seen["round inherited"]++
			default:
				seen["round explicit"]++
			}
			k, hasK = kk, true
		}
		switch inner.(type) {
		case consensus.LeadDeltaPayload, consensus.ProposalDeltaPayload:
			switch {
			case hasTo && len(d.Adds) == 0 && d.To == to:
				seen["frame inherited"]++
			case len(d.Adds) > 0:
				seen["frame with adds"]++
			default:
				seen["frame without adds"]++
			}
			to, hasTo = d.To, true
		}
		b = append(b, rsm.SlotPayload{Slot: s, Inner: inner})
	}
	return b
}

// slotCode names the slot code of a slot item of slot s behind one of
// last (none when !inSlot): a delta where its zigzag varint is shorter than
// s's varint.
func slotCode(inSlot bool, last, s int) string {
	step := int64(s - last)
	switch {
	case !inSlot:
		return "explicit"
	case step == 0:
		return "same"
	case step == 1:
		return "next"
	case len(binary.AppendVarint(nil, step)) < len(binary.AppendUvarint(nil, uint64(s))):
		return "delta"
	}
	return "explicit"
}

// TestRoundTripGeneratedBundles: every generated bundle decodes
// reflect.DeepEqual to itself, and together they exercise every bit of
// the head byte: each slot code, the round inherited from the start, from
// an item before and not at all (across SAW, which has none, and SACK,
// which sets it), frames inherited, empty and with adds, and PROPD with
// and without a value.
func TestRoundTripGeneratedBundles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		b := genBundle(rng, rng.Intn(300), seen)
		enc, err := wire.EncodePayload(b)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		got, err := wire.DecodePayload(enc)
		if err != nil || !reflect.DeepEqual(got, model.Payload(b)) {
			t.Fatalf("bundle %v decodes as %v (err %v)", b, got, err)
		}
	}
	for _, c := range []string{"BATCH", "CMD", "PRGR", "FLW", "LEADD", "PROPD", "REP", "SAW", "SACK",
		"PROPD with V", "PROPD without V", "slot explicit", "slot same", "slot next", "slot delta",
		"round 1 inherited from the start", "round inherited", "round explicit",
		"frame inherited", "frame without adds", "frame with adds"} {
		if seen[c] < 50 {
			t.Errorf("%q occurred %d times in the generated bundles, want ≥ 50", c, seen[c])
		}
	}
}

// bundleRejects are bundle framings no bundle has: each must fail to
// decode. The fuzz target starts from them too.
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
	cmd, rep := enc(rsm.CommandPayload{Cmd: 1}), enc(slotted(consensus.ReportPayload{K: 1, V: 2}))
	join := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{{tag}}, parts...), nil) }
	return map[string][]byte{
		"empty bundle":                 join(),
		"one-item bundle":              join(cmd),
		"bundle inside a bundle":       join(cmd, join(cmd, cmd)),
		"unknown tag inside a bundle":  join(cmd, []byte{0x7F}),
		"truncated item inside bundle": join(cmd, rep[:len(rep)-1]),
	}
}

// headRejects are slot items no slot payload encodes to, bare and
// bundled: each must fail to decode. The fuzz target starts from them too.
func headRejects(tb testing.TB) map[string][]byte {
	tb.Helper()
	enc := func(pl model.Payload) []byte {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	tag := enc(rsm.Bundle{rsm.CommandPayload{Cmd: 1}, rsm.CommandPayload{Cmd: 2}})[0]
	join := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{{tag}}, parts...), nil) }
	cmd := enc(rsm.CommandPayload{Cmd: 1})
	// REP(K 1, V 2) on slot 1, and LEADD(K 1, V 2, no adds at To 1) on it.
	rep := []byte{head(hRep, hExplicit, true, false), 1, 4}
	lead := []byte{head(hLead, hExplicit, true, false), 1, 4, 2}
	same := []byte{head(hRep, hSame, true, false), 4}
	next := []byte{head(hRep, hNext, true, false), 4}
	last := append(binary.AppendUvarint([]byte{head(hRep, hExplicit, true, false)}, math.MaxInt), 4)
	delta := func(step int64) []byte {
		return append(binary.AppendVarint([]byte{head(hRep, hDelta, true, false)}, step), 4)
	}
	return map[string][]byte{
		"same slot bare":                   same,
		"next slot bare":                   next,
		"same slot before any slot item":   join(cmd, same),
		"next slot before any slot item":   join(cmd, next),
		"next slot past MaxInt":            join(last, next),
		"slot above MaxInt":                append(binary.AppendUvarint([]byte{head(hRep, hExplicit, true, false)}, math.MaxInt+1), 4),
		"inherited frame bare":             {head(hLead, hExplicit, true, true), 1, 4},
		"inherited frame before any frame": join(rep, []byte{head(hLead, hSame, true, true), 4}),
		"inherited frame on REP":           join(lead, []byte{head(hRep, hSame, true, true), 4}),
		"inherited frame on SAW":           join(lead, []byte{head(hSaw, hSame, false, true), 3}),
		"inherited frame on SACK":          join(lead, []byte{head(hSack, hSame, true, true), 3, 2}),
		"inherited round on SAW":           join(lead, []byte{head(hSaw, hSame, true, false), 3}),
		"round bit on PRGR":                {head(hPrgr, hExplicit, true, false), 1},
		"frame bit on PRGR":                join(lead, []byte{head(hPrgr, hSame, false, true)}),
		"unused kind 7":                    {head(7, hExplicit, false, false), 1, 2},
		"slot delta bare":                  delta(2),
		"slot delta before any slot item":  join(cmd, delta(2)),
		"slot delta below slot 0":          join(rep, delta(-2)),
		"slot delta past MaxInt":           join(last, delta(2)),
		"truncated slot":                   {head(hRep, hExplicit, true, false), 0x80},
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
	} {
		if _, err := wire.EncodePayload(b); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestHeadByteRejects: a slot item inherits a slot only from a slot item
// before it in the payload, and never below 0 or past math.MaxInt; a frame
// only from a frame before it, and only on LEADD or PROPD; a round only on
// a kind that has one, which PRGR does not; and the kind the grammar leaves
// unused is an error.
func TestHeadByteRejects(t *testing.T) {
	for name, b := range headRejects(t) {
		if got, err := wire.DecodePayload(b); err == nil {
			t.Errorf("%s: %x decoded as %v", name, b, got)
		}
	}
}

// TestSlotItemEncodeRejects: a slot holds one of the six kinds the log
// sends a peer, and a PROPD without a value carries no V. The plain LEAD,
// PROP and ACK stay inside the step that sends them to their own sender.
func TestSlotItemEncodeRejects(t *testing.T) {
	for _, inner := range []model.Payload{
		consensus.LeadPayload{K: 2, V: -1, Hist: sampleHistories()},
		consensus.ProposalPayload{K: 1, V: 3, HasV: true},
		consensus.AckPayload{Q: model.SetOf(1), K: 2},
		rsm.CommandPayload{Cmd: 1},
		slotted(consensus.ReportPayload{K: 1, V: 2}),
		sampleBundle(),
		consensus.ProposalDeltaPayload{K: 1, V: 4},
	} {
		for _, pl := range []model.Payload{slotted(inner), rsm.Bundle{rsm.CommandPayload{Cmd: 1}, slotted(inner)}} {
			if _, err := wire.EncodePayload(pl); err == nil {
				t.Errorf("%v encoded", pl)
			}
		}
	}
}
