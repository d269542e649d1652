package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
		{4, 3, 0, 0, 0}, // a SAW, then a byte no item starts with
	}
	// A history set lists its quorums strictly ascending, so a repeated
	// quorum or a descending pair is a second encoding of some value.
	lead, err := wire.EncodePayload(consensus.LeadPayload{K: 1, V: 2})
	if err != nil {
		t.Fatal(err)
	}
	head := lead[:len(lead)-1] // tag, K, V: the histories follow
	cases = append(cases,
		append(slices.Clip(head), 1, 2, 3, 3),    // one process, two quorums: {p0,p1} twice
		append(slices.Clip(head), 2, 0, 2, 5, 3), // two processes, p1's {p0,p2} before {p0,p1}
	)
	for i, b := range cases {
		if pl, err := wire.DecodePayload(b); err == nil {
			t.Errorf("case %d: %x decoded as %v, want an error", i, b, pl)
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
// as a payload or as a peer frame: a frame ends at the item its first byte
// marks as the last, so a payload cut anywhere, between two items too,
// lacks its last item or the rest of it. A decode that runs out of input
// returns its first error, never the zeros its reads return after it. A
// reject cut inside one of its parts does not decode either.
func TestTruncatedSeedsAreRejected(t *testing.T) {
	type seed struct {
		b     []byte
		parts map[int]bool // prefix lengths that end a reject's part
	}
	var seeds []seed
	for _, pl := range seedPayloads() {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, seed{b: b})
	}
	for _, r := range seedRejects(t) {
		s := seed{b: r.bytes(), parts: map[int]bool{}}
		for i := 1; i < len(r); i++ {
			s.parts[len(r[:i].bytes())] = true
		}
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		for cut := 0; cut < len(s.b); cut++ {
			if s.parts[cut] {
				continue
			}
			if pl, err := wire.DecodePayload(s.b[:cut]); err == nil {
				t.Errorf("%x cut to %d bytes decodes as %v", s.b, cut, pl)
			}
			var m model.Message
			if err := wire.DecodeMessageInto(&m, s.b[:cut]); err == nil {
				t.Errorf("frame %x cut to %d bytes decodes as %v", s.b, cut, &m)
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

// frameRejects are history frames no delta has, each behind a lone slot
// LEADD's head byte, slot and V: each must fail to decode. The fuzz target
// starts from them too.
func frameRejects(tb testing.TB) map[string]reject {
	tb.Helper()
	b, err := wire.EncodePayload(slotted(consensus.LeadDeltaPayload{K: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	lead := b[:len(b)-1] // head, slot, V
	frame := func(parts ...byte) reject { return reject{append(append([]byte{}, lead...), parts...)} }
	return map[string]reject{
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
	for name, r := range frameRejects(t) {
		if got, err := wire.DecodePayload(r.bytes()); err == nil {
			t.Errorf("%s: %x decoded as %v", name, r.bytes(), got)
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
// Nor does the seventh kind, a PRGR, supersede bare: it inherits its slot
// from its link's run, so dropping it would break the run.
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
	if h, err := wire.PeekMessage(b); err != nil || h != (wire.MessageHead{Kind: "PRGR"}) {
		t.Errorf("peek of a bare PRGR %x = %+v (err %v), want a PRGR that does not supersede", b, h, err)
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
// and slot traffic that walks a window of slots 70 and 71, interrupted by
// a slot-less item. Its slot items inherit what they can from the slot
// item before them: seven their slot (one above or one below it; the
// LEADD one above the PRGR's floor), three a round of 2 that their bare
// encoding would have to spell out, three the LEADD's V of 7, and the last
// one its empty history frame too.
func sampleBundle() rsm.Bundle {
	return rsm.Bundle{
		serve.BatchPayload{ID: serve.BatchID(2, 5), Cmds: []serve.Command{{Client: 4, Seq: 9, Op: serve.OpPut, Key: 1, Val: -3}}},
		rsm.CommandPayload{Cmd: serve.BatchID(2, 5)},
		rsm.ProgressPayload{Slot: 70},
		rsm.SlotPayload{Slot: 71, Inner: consensus.LeadDeltaPayload{K: 1, V: 7, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 70, Inner: consensus.ReportPayload{K: 1, V: 7}},
		rsm.SlotPayload{Slot: 71, Inner: consensus.ProposalDeltaPayload{K: 2, V: 7, HasV: true, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 70, Inner: consensus.SawPayload{Q: model.SetOf(0, 2)}},
		rsm.CommandPayload{Cmd: 12},
		rsm.SlotPayload{Slot: 71, Inner: rsm.AckStampPayload{Q: model.SetOf(1, 2), K: 2, Stamp: 72}},
		rsm.SlotPayload{Slot: 70, Inner: consensus.ReportPayload{K: 2, V: 7}},
		rsm.SlotPayload{Slot: 71, Inner: consensus.ProposalDeltaPayload{K: 2, Delta: quorum.Delta{Base: 6, To: 6}}},
	}
}

// TestRoundTripBundle: a bundle round-trips as a payload and as a peer
// frame, which peeks as BNDL and never supersedes, and its encoding is
// its items' lone encodings one after another, with no header, less each
// one-byte field an item inherits in the bundle but not alone. A lone slot
// item inherits only the initial round 1, and no V.
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
	size := 0
	for _, pl := range b {
		item, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		size += len(item)
	}
	// 39 = 53 bytes of lone items − 7 slot varints (every slot item but
	// the PRGR, one above or below the slot item before it) − 3 K of 2
	// (SACK, the second REP, the last PROPD) − 3 V of 7 (both REPs and the
	// PROPD with V, behind the LEADD's) − 1 frame (the last PROPD's, empty
	// at the To of the PROPD before it).
	const slots, rounds, values, frames, want = 7, 3, 3, 1, 39
	if size-slots-rounds-values-frames != want || len(enc) != want {
		t.Errorf("bundle encodes in %d bytes from %d of lone items, want %d: %d slots, %d rounds, %d values and %d frames of 1 byte inherited",
			len(enc), size, want, slots, rounds, values, frames)
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

// TestPeekReadsFirstItemExtent: a frame has no header, and the first byte
// of its first item says whether the item ends the frame, which is all
// PeekMessage reads to tell a lone item from a bundle. Every item kind
// alone peeks as its own kind and never supersedes. The kinds that share
// a frame (the slot items, PRGR, BATCH, FLW and CMD) followed by a second
// item, a tagged one or a slot item, peek as BNDL; no other kind shares a
// frame, so a bundle of one fails to encode. A heartbeat and a DAG
// snapshot alone supersede, and share a frame with no item: such a frame
// fails to decode. On a link, where a frame's first item inherits from
// the frames before it, every frame peeks as what it decodes to.
func TestPeekReadsFirstItemExtent(t *testing.T) {
	peek := func(pl model.Payload) wire.MessageHead {
		t.Helper()
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		h, err := wire.PeekMessage(b)
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		return h
	}
	alone := []model.Payload{
		consensus.LeadPayload{K: 3, V: -7, Hist: sampleHistories()},
		consensus.ReportPayload{K: 2, V: 42},
		consensus.ProposalPayload{K: 5, V: 9, HasV: true, Hist: sampleHistories()},
		consensus.SawPayload{Q: model.SetOf(0, 2)},
		consensus.AckPayload{Q: model.SetOf(1), K: 8},
		transform.RoundPayload{K: 12},
		consensus.EstimatePayload{R: 4, V: -3, TS: 2},
		consensus.CoordPayload{R: 6, V: 1},
		consensus.ReplyPayload{R: 7, Ok: true},
		consensus.DecidePayload{V: -1},
		serve.RequestPayload{Client: 3, Seq: 11, Op: 9, Key: 12, Lin: true, T0: 1722000000123456789},
		serve.ReplyPayload{Client: 3, Seq: 11, Status: serve.StatusOK, Val: 77, T0: 1722000000123456789},
	}
	var shared []model.Payload
	for _, b := range ledBundles() {
		shared = append(shared, b[0]) // the slot item kinds, PRGR, BATCH, FLW and CMD
	}
	seconds := []model.Payload{rsm.CommandPayload{Cmd: 1}, rsm.ProgressPayload{Slot: 1 << 20}}
	for _, pl := range append(alone, shared...) {
		if h, want := peek(pl), (wire.MessageHead{Kind: pl.Kind()}); h != want {
			t.Errorf("%v alone peeks as %+v, want %+v", pl, h, want)
		}
	}
	for _, pl := range shared {
		for _, second := range seconds {
			if h, want := peek(rsm.Bundle{pl, second}), (wire.MessageHead{Kind: "BNDL"}); h != want {
				t.Errorf("%v followed by %v peeks as %+v, want %+v", pl, second, h, want)
			}
		}
	}
	for _, pl := range alone {
		for _, b := range []rsm.Bundle{{pl, seconds[0]}, {seconds[1], pl}} {
			if enc, err := wire.EncodePayload(b); err == nil {
				t.Errorf("%v encoded as %x", b, enc)
			}
		}
	}
	cmd, err := wire.EncodePayload(rsm.CommandPayload{Cmd: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sup := range []model.Payload{hb.HeartbeatPayload{}, dag.GraphPayload{G: sampleGraph()}} {
		if h, want := peek(sup), (wire.MessageHead{Kind: sup.Kind(), Supersedes: true}); h != want {
			t.Errorf("%v alone peeks as %+v, want %+v", sup, h, want)
		}
		b, err := wire.EncodePayload(sup)
		if err != nil {
			t.Fatal(err)
		}
		for _, frame := range [][]byte{append(append([]byte{}, b...), cmd...), append(notLast(cmd), b...)} {
			if pl, err := wire.DecodePayload(frame); err == nil {
				t.Errorf("%x, %v and a CMD in one frame, decoded as %v", frame, sup, pl)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	var tx, rx wire.Link
	for i := 0; i < 2000; i++ {
		frame, err := tx.Append(nil, genLinkPayload(rng, 1<<14+i/4))
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		var m model.Message
		if err := rx.Decode(&m, frame); err != nil {
			t.Fatal(err)
		}
		_, sup := m.Payload.(model.SupersededPayload)
		if h, err := wire.PeekMessage(frame); err != nil || h != (wire.MessageHead{Kind: m.Payload.Kind(), Supersedes: sup}) {
			t.Fatalf("link frame %d %x decodes as %v but peeks as %+v (err %v)", i, frame, m.Payload, h, err)
		}
	}
}

// The head byte of a slot item, spelled out as the package grammar has it:
// bit 7 the marker, bits 0–2 and bit 6 the code, bits 3–4 the slot code
// and bit 5 the round. A code is written here as bits 0–2 plus 8 for bit 6;
// SameV and SameF name a V and a history frame inherited. Code 14 is no
// slot item's.
const (
	hLead, hPropV, hProp, hRep, hSaw, hLeadSameV, hPrgr, hPropVSameV byte = 0, 1, 2, 3, 4, 5, 6, 7

	hLeadSameF, hPropVSameF, hPropSameF, hRepSameV, hSack, hLeadSameVF, hPropVSameVF byte = 8, 9, 10, 11, 12, 13, 15

	hExplicit, hPrev, hNext, hDelta byte = 0, 1, 2, 3
)

func head(code, slot byte, round bool) byte {
	h := 0x80 | code&7 | (code&8)<<3 | slot<<3
	if round {
		h |= 1 << 5
	}
	return h
}

// startsLast reports whether c starts a frame's last item, as the package
// grammar has it: a live kind tag (1–19 but the unused 9 and the retired
// 18), or a slot item head of a code some kind has, with a round bit only
// on a kind that has a round.
func startsLast(c int) bool {
	if c < 0x80 {
		return c >= 1 && c <= 19 && c != 9 && c != 18
	}
	code, round := byte(c&7|(c>>6&1)<<3), c&0x20 != 0
	return code != 14 && !(round && (code == hSaw || code == hPrgr))
}

// more is the first byte of an item that more items follow in its frame,
// where the item as its frame's last starts with b: the package grammar's
// head table, laid out afresh. The first bytes of the items that share a
// frame (CMD 10, BATCH 15, FLW 19 and every slot item head), ascending,
// take the bytes no last item starts with, ascending, 0 aside.
func more(b byte) byte {
	free := 0
	for c := 1; c < 256; c++ {
		if c != 10 && c != 15 && c != 19 && (c < 0x80 || !startsLast(c)) {
			continue
		}
		for free++; startsLast(free); free++ {
		}
		if c == int(b) {
			return byte(free)
		}
	}
	panic(fmt.Sprintf("no item that shares a frame starts with 0x%02x", b))
}

// notLast is item, a lone item's encoding, as it starts when more items
// follow it in its frame.
func notLast(item []byte) []byte {
	return append([]byte{more(item[0])}, item[1:]...)
}

// TestHeadTable: the first byte of an item says whether it is its frame's
// last. 129 bytes start a last item: the 17 live kind tags and the 112
// slot item heads. The 115 items that share a frame, CMD, BATCH, FLW and
// every slot item head, each have a second first byte that says more
// items follow, and 12 bytes start no item: 0, the round bit on PRGR with
// the next and delta slot codes and on SAW with the delta one, and code 14
// with every slot code but the first.
func TestHeadTable(t *testing.T) {
	if got := []byte{more(10), more(15), more(19), more(0x80), more(0xFF)}; !bytes.Equal(got, []byte{9, 18, 20, 21, 0xB4}) {
		t.Errorf("more-forms of CMD, BATCH, FLW, the first and the last head: %x, want 09 12 14 15 b4", got)
	}
	lasts, mores, none := 0, 0, []byte{}
	for b := 0; b < 256; b++ {
		h, err := wire.PeekMessage([]byte{byte(b)})
		switch {
		case err != nil:
			none = append(none, byte(b))
		case startsLast(b):
			lasts++
			if h.Kind == "BNDL" {
				t.Errorf("0x%02x peeks as a bundle, but starts a last item", b)
			}
		default:
			mores++
			if h.Kind != "BNDL" {
				t.Errorf("0x%02x peeks as %+v, but starts an item more items follow", b, h)
			}
		}
	}
	wantNone := []byte{0, 0xB6, 0xBC, 0xBE, 0xC6, 0xCE, 0xD6, 0xDE, 0xE6, 0xEE, 0xF6, 0xFE}
	if lasts != 129 || mores != 115 || !bytes.Equal(none, wantNone) {
		t.Errorf("%d bytes start a last item, %d one more items follow, and %x none; want 129, 115 and %x", lasts, mores, none, wantNone)
	}
}

// TestHeadByte: the head byte the encoder writes is the grammar's, for
// each kind, slot code and inheritance, and each of the fifteen codes, in
// its more-follows form on every item but the frame's last (TestHeadTable).
// A PRGR is a slot item whose slot is its floor, and a slot delta is
// written only where it is shorter than the slot's varint.
func TestHeadByte(t *testing.T) {
	lead := consensus.LeadDeltaPayload{K: 1, V: 2, Delta: quorum.Delta{Base: 1, To: 1}}
	for _, tc := range []struct {
		b    rsm.Bundle
		want []byte
	}{
		// Slot 1, round 1 inherited from the start, V 2, frame To 1; then
		// the same slot written out (a delta of 0 is no shorter than slot
		// 1's varint), K 3 and V 2 inherited, no frame.
		{rsm.Bundle{slotted(lead), slotted(consensus.ReportPayload{K: 3, V: 2})},
			[]byte{more(head(hLead, hExplicit, true)), 1, 4, 2, head(hRepSameV, hExplicit, false), 1, 6}},
		// PROPD with and without V, the second on the next slot with the
		// first's round and frame.
		{rsm.Bundle{
			slotted(consensus.ProposalDeltaPayload{K: 2, V: 5, HasV: true, Delta: quorum.Delta{Base: 3, To: 3}}),
			rsm.SlotPayload{Slot: 2, Inner: consensus.ProposalDeltaPayload{K: 2, Delta: quorum.Delta{Base: 3, To: 3}}},
		}, []byte{more(head(hPropV, hExplicit, false)), 1, 4, 10, 6, head(hPropSameF, hNext, true)}},
		// SAW (no K), then SACK on slot 9: explicit slot, round 1 inherited,
		// stamp 4 five below its slot (zigzag 9).
		{rsm.Bundle{slotted(consensus.SawPayload{Q: 3}), rsm.SlotPayload{Slot: 9, Inner: rsm.AckStampPayload{Q: 3, K: 1, Stamp: 4}}},
			[]byte{more(head(hSaw, hExplicit, false)), 1, 3, head(hSack, hExplicit, true), 9, 3, 9}},
		// REP on slot 300 (a two-byte varint), the floor 298 two below it
		// (zigzag 3: one byte) and SAW on 301 three above the floor (zigzag
		// 6), then a PRGR on slot 5: a delta of −296 is no shorter than 5.
		{rsm.Bundle{
			rsm.SlotPayload{Slot: 300, Inner: consensus.ReportPayload{K: 1, V: 2}},
			rsm.ProgressPayload{Slot: 298},
			rsm.SlotPayload{Slot: 301, Inner: consensus.SawPayload{Q: 3}},
			rsm.ProgressPayload{Slot: 5},
		}, []byte{more(head(hRep, hExplicit, true)), 0xAC, 0x02, 4, more(head(hPrgr, hDelta, false)), 3,
			more(head(hSaw, hDelta, false)), 6, 3, head(hPrgr, hExplicit, false), 5}},
		// REP on slot 300, SAW on it again (a delta of 0: shorter than the
		// two-byte varint), and the floor 299 one below.
		{rsm.Bundle{
			rsm.SlotPayload{Slot: 300, Inner: consensus.ReportPayload{K: 1, V: 2}},
			rsm.SlotPayload{Slot: 300, Inner: consensus.SawPayload{Q: 3}},
			rsm.ProgressPayload{Slot: 299},
		}, []byte{more(head(hRep, hExplicit, true)), 0xAC, 0x02, 4, more(head(hSaw, hDelta, false)), 0, 3, head(hPrgr, hPrev, false)}},
		// A window of two walking up from slot 1, each item one slot above
		// or below the one before. V inherited by LEADD, PROPD and REP,
		// across a PROPD without V, with and without the frame: V 3 (zigzag
		// 6) from the LEADD on until the REP of −1 (zigzag 1); the PROPD of
		// 0 behind it writes its V and inherits the frame; the last LEADD
		// writes V 5 (zigzag 10). Frames at To 1, then 2 (varint 4), then 3
		// (6).
		{rsm.Bundle{
			slotted(consensus.LeadDeltaPayload{K: 1, V: 3, Delta: quorum.Delta{Base: 1, To: 1}}),
			rsm.SlotPayload{Slot: 2, Inner: consensus.ProposalDeltaPayload{K: 1, V: 3, HasV: true, Delta: quorum.Delta{Base: 1, To: 1}}},
			slotted(consensus.ProposalDeltaPayload{K: 1, Delta: quorum.Delta{Base: 1, To: 1}}),
			rsm.SlotPayload{Slot: 2, Inner: consensus.ReportPayload{K: 1, V: 3}},
			rsm.SlotPayload{Slot: 3, Inner: consensus.LeadDeltaPayload{K: 1, V: 3, Delta: quorum.Delta{Base: 2, To: 2}}},
			rsm.SlotPayload{Slot: 4, Inner: consensus.LeadDeltaPayload{K: 1, V: 3, Delta: quorum.Delta{Base: 2, To: 2}}},
			rsm.SlotPayload{Slot: 3, Inner: consensus.ProposalDeltaPayload{K: 1, V: 3, HasV: true, Delta: quorum.Delta{Base: 3, To: 3}}},
			rsm.SlotPayload{Slot: 4, Inner: consensus.ReportPayload{K: 1, V: -1}},
			rsm.SlotPayload{Slot: 3, Inner: consensus.ProposalDeltaPayload{K: 1, V: 0, HasV: true, Delta: quorum.Delta{Base: 3, To: 3}}},
			rsm.SlotPayload{Slot: 4, Inner: consensus.LeadDeltaPayload{K: 1, V: 5, Delta: quorum.Delta{Base: 3, To: 3}}},
		}, []byte{more(head(hLead, hExplicit, true)), 1, 6, 2, more(head(hPropVSameVF, hNext, true)), more(head(hPropSameF, hPrev, true)),
			more(head(hRepSameV, hNext, true)), more(head(hLeadSameV, hNext, true)), 4, more(head(hLeadSameVF, hNext, true)),
			more(head(hPropVSameV, hPrev, true)), 6, more(head(hRep, hNext, true)), 1, more(head(hPropVSameF, hPrev, true)), 0,
			head(hLeadSameF, hNext, true), 10}},
	} {
		enc, err := wire.EncodePayload(tc.b)
		if err != nil || !bytes.Equal(enc, tc.want) {
			t.Errorf("%v encodes as %x (err %v), want %x", tc.b, enc, err, tc.want)
		}
	}
}

// genBundle draws a bundle of the shapes a step of the log sends a peer:
// slot items of the six kinds for slots base and base + 1 interleaved, now
// and then one for a slot far off, PRGR on base or base + 1, with BATCH,
// CMD and FLW between them; rounds that mostly repeat, from 1 on; history
// frames mostly empty, and then mostly at the last frame's To; values that
// mostly repeat the last one written. seen counts
// the inheritance cases the bundle exercises inside itself, read off the
// grammar by the generator itself.
func genBundle(rng *rand.Rand, base int, seen map[string]int) rsm.Bundle {
	ver := uint64(rng.Intn(100))
	var (
		b                         rsm.Bundle
		slot, k, v                = 0, 1, 0
		to                        uint64
		inSlot, hasK, hasV, hasTo bool
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
		vv := v
		if !hasV || rng.Intn(3) == 0 {
			vv = rng.Intn(9) - 4
		}
		var inner model.Payload
		kind := rng.Intn(6)
		switch kind {
		case 0:
			inner = consensus.LeadDeltaPayload{K: kk, V: vv, Delta: d}
		case 1:
			inner = consensus.ProposalDeltaPayload{K: kk, V: vv, HasV: true, Delta: d}
			seen["PROPD with V"]++
		case 2:
			inner = consensus.ProposalDeltaPayload{K: kk, Delta: d}
			seen["PROPD without V"]++
		case 3:
			inner = consensus.ReportPayload{K: kk, V: vv}
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
		if kind == 0 || kind == 1 || kind == 3 { // LEADD, PROPD with V, REP
			if hasV && vv == v {
				seen["value inherited"]++
			} else {
				seen["value explicit"]++
			}
			v, hasV = vv, true
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
	case step == -1:
		return "previous"
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
// which sets it), values inherited and not, frames inherited, empty and
// with adds, and PROPD with and without a value.
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
		"PROPD with V", "PROPD without V", "slot explicit", "slot previous", "slot next", "slot delta",
		"round 1 inherited from the start", "round inherited", "round explicit",
		"value inherited", "value explicit", "frame inherited", "frame without adds", "frame with adds"} {
		if seen[c] < 50 {
			t.Errorf("%q occurred %d times in the generated bundles, want ≥ 50", c, seen[c])
		}
	}
}

// A reject is an input no payload encodes to, in parts: every part but
// the last is one whole item as it stands in the input, in its
// more-follows form unless the reject is a last item before the end, and
// the last part makes the whole fail.
type reject [][]byte

func (r reject) bytes() []byte { return bytes.Join(r, nil) }

// bundleRejects are frames of several items no bundle encodes to: each
// must fail to decode. The fuzz targets start from them too.
func bundleRejects(tb testing.TB) map[string]reject {
	tb.Helper()
	enc := func(pl model.Payload) []byte {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	cmd, rep := enc(rsm.CommandPayload{Cmd: 1}), enc(slotted(consensus.ReportPayload{K: 1, V: 2}))
	beat, snapshot := enc(hb.HeartbeatPayload{}), enc(dag.GraphPayload{G: sampleGraph()})
	lead := enc(consensus.LeadPayload{K: 1, V: 2})
	return map[string]reject{
		"no last item":                      {notLast(cmd)},
		"no last item after a slot item":    {notLast(rep), notLast(cmd)},
		"a last item before the end":        {cmd, rep},
		"heartbeat followed by an item":     {beat, cmd},
		"DAG snapshot followed by an item":  {snapshot, rep},
		"item followed by a heartbeat":      {notLast(cmd), beat},
		"item followed by a DAG snapshot":   {notLast(rep), snapshot},
		"item followed by a plain LEAD":     {notLast(cmd), lead},
		"byte 0 after an item":              {notLast(cmd), {0}},
		"truncated item after an item":      {notLast(cmd), rep[:len(rep)-1]},
		"byte 0 after two items":            {notLast(cmd), notLast(rep), {0}},
		"heartbeat behind two items":        {notLast(rep), notLast(cmd), beat},
		"code 14 after a slot item":         {notLast(rep), {head(14, hNext, false)}},
		"truncated slot item after an item": {notLast(cmd), {rep[0]}},
	}
}

// headRejects are slot items no slot payload encodes to, alone and behind
// other items: each must fail to decode. The fuzz targets start from them
// too.
func headRejects(tb testing.TB) map[string]reject {
	tb.Helper()
	cmd, err := wire.EncodePayload(rsm.CommandPayload{Cmd: 1})
	if err != nil {
		tb.Fatal(err)
	}
	// REP(K 1, V 2) on slot 1, LEADD(K 1, V 2, no adds at To 1) on it, and
	// SAW({p0, p1}) and PROPD without V (K 1, no adds at To 1) on it, each
	// as it starts ahead of another item.
	rep := notLast([]byte{head(hRep, hExplicit, true), 1, 4})
	lead := notLast([]byte{head(hLead, hExplicit, true), 1, 4, 2})
	saw := notLast([]byte{head(hSaw, hExplicit, false), 1, 3})
	prop := notLast([]byte{head(hProp, hExplicit, true), 1, 2})
	prev := []byte{head(hRep, hPrev, true), 4}
	next := []byte{head(hRep, hNext, true), 4}
	last := append(binary.AppendUvarint([]byte{head(hRep, hExplicit, true)}, math.MaxInt), 4)
	delta := func(step int64) []byte {
		return append(binary.AppendVarint([]byte{head(hRep, hDelta, true)}, step), 4)
	}
	cmd = notLast(cmd)
	return map[string]reject{
		"previous slot alone":                {prev},
		"next slot alone":                    {next},
		"previous slot before any slot item": {cmd, prev},
		"previous slot below slot 0":         {notLast([]byte{head(hRep, hExplicit, true), 0, 4}), prev},
		"next slot before any slot item":     {cmd, next},
		"next slot past MaxInt":              {notLast(last), next},
		"slot above MaxInt":                  {append(binary.AppendUvarint([]byte{head(hRep, hExplicit, true)}, math.MaxInt+1), 4)},
		"inherited frame alone":              {{head(hLeadSameF, hExplicit, true), 1, 4}},
		"inherited frame before any frame":   {rep, {head(hLeadSameF, hNext, true), 4}},
		"inherited value alone":              {{head(hRepSameV, hExplicit, true), 1}},
		"inherited value before any value":   {saw, {head(hLeadSameV, hNext, true), 2}},
		"inherited value behind PROPD no V":  {prop, {head(hRepSameV, hNext, true)}},
		"inherited round on SAW":             {lead, {head(hSaw, hDelta, true), 0, 3}},
		"round bit on PRGR":                  {{head(hPrgr, hDelta, true), 1}},
		"code 14 alone":                      {{head(14, hExplicit, false), 1}},
		"code 14 behind a slot item":         {lead, {head(14, hNext, false)}},
		"slot delta alone":                   {delta(2)},
		"slot delta before any slot item":    {cmd, delta(2)},
		"slot delta below slot 0":            {rep, delta(-2)},
		"slot delta past MaxInt":             {notLast(last), delta(2)},
		"truncated slot":                     {{head(hRep, hExplicit, true), 0x80}},
	}
}

func TestBundleRejects(t *testing.T) {
	for name, r := range bundleRejects(t) {
		if got, err := wire.DecodePayload(r.bytes()); err == nil {
			t.Errorf("%s: %x decoded as %v", name, r.bytes(), got)
		}
	}
	for name, b := range map[string]rsm.Bundle{
		"one-item bundle":           {rsm.CommandPayload{Cmd: 1}},
		"bundle inside a bundle":    {rsm.CommandPayload{Cmd: 1}, rsm.Bundle{rsm.CommandPayload{Cmd: 2}, rsm.CommandPayload{Cmd: 3}}},
		"heartbeat in a bundle":     {rsm.CommandPayload{Cmd: 1}, hb.HeartbeatPayload{}},
		"DAG snapshot in a bundle":  {dag.GraphPayload{G: sampleGraph()}, rsm.ProgressPayload{Slot: 2}},
		"heartbeat behind one item": {rsm.ProgressPayload{Slot: 2}, rsm.CommandPayload{Cmd: 1}, hb.HeartbeatPayload{}},
	} {
		if _, err := wire.EncodePayload(b); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestHeadByteRejects: a slot item inherits a slot only from a slot item
// before it in the payload, and never below 0 or past math.MaxInt; a frame
// only from a frame before it; a V only from a V before it, which a PROPD
// without V does not write; a round only on a kind that has one, which SAW
// and PRGR do not; and the code the grammar leaves unused is an error.
func TestHeadByteRejects(t *testing.T) {
	for name, r := range headRejects(t) {
		if got, err := wire.DecodePayload(r.bytes()); err == nil {
			t.Errorf("%s: %x decoded as %v", name, r.bytes(), got)
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
