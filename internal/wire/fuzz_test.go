package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
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
	"nuconsensus/internal/wire"
)

// seedPayloads are the payloads the fuzz targets start from: the kinds a
// link carries, alone and bundled, bundles led by each kind a bundle holds
// and one that takes every slot item code, and a DAG snapshot whose nodes
// carry every failure-detector value kind.
func seedPayloads() []model.Payload {
	pls := []model.Payload{
		consensus.LeadPayload{K: 3, V: -7, Hist: sampleHistories()},
		consensus.ReportPayload{K: 2, V: 42},
		consensus.ProposalPayload{K: 5},
		consensus.ProposalPayload{K: 4, V: 1, HasV: true, Hist: sampleHistories()},
		consensus.SawPayload{Q: model.SetOf(0, 2)},
		consensus.AckPayload{Q: model.SetOf(1), K: 8},
		slotted(consensus.LeadDeltaPayload{K: 3, V: -7, Delta: sampleDelta()}),
		slotted(consensus.ProposalDeltaPayload{K: 5, HasV: true, V: 2, Delta: sampleDelta()}),
		slotted(consensus.LeadDeltaPayload{K: 1, V: 4, Delta: quorum.Delta{Base: 9, To: 9}}),
		slotted(consensus.ProposalDeltaPayload{K: 2, Delta: sampleDelta()}),
		slotted(consensus.ProposalDeltaPayload{K: 2, Delta: quorum.Delta{Base: 40, To: 40}}),
		rsm.SlotPayload{Slot: 200, Inner: consensus.ReportPayload{K: 1, V: 2}},
		rsm.ProgressPayload{Slot: 1 << 20},
		rsm.FollowPayload{Leader: 3},
		rsm.SlotPayload{Slot: 9, Inner: rsm.AckStampPayload{Q: model.SetOf(0, 1, 3), K: 2, Stamp: 10}},
		slotted(rsm.AckStampPayload{Q: model.SetOf(2), K: 1, Stamp: 0}),
		serve.BatchPayload{ID: serve.BatchID(1, 0), Cmds: []serve.Command{
			{Client: 1, Seq: 1, Op: serve.OpPut, Key: 9, Val: -42},
			{Client: 2, Seq: 7, Op: serve.OpQPush, Key: 3, Val: 5},
			{Client: 3, Seq: 8, Op: 9, Key: 4, Val: 6},
		}},
		serve.RequestPayload{Client: 3, Seq: 11, Op: serve.OpGet, Key: 12, Lin: true, T0: 1722000000123456789},
		serve.ReplyPayload{Client: 3, Seq: 11, Status: serve.StatusOK, Val: 77, T0: 1722000000123456789},
		sampleBundle(),
		// One λ-step of a window of three: each slot's LEAD on the next slot,
		// with the round and the frame of the one before.
		rsm.Bundle{
			rsm.SlotPayload{Slot: 4, Inner: consensus.LeadDeltaPayload{K: 1, V: 3, Delta: sampleDelta()}},
			rsm.SlotPayload{Slot: 5, Inner: consensus.LeadDeltaPayload{K: 1, V: 4, Delta: quorum.Delta{Base: 6, To: 6}}},
			rsm.SlotPayload{Slot: 6, Inner: consensus.LeadDeltaPayload{K: 1, V: 5, Delta: quorum.Delta{Base: 6, To: 6}}},
		},
		stableValues(8),
		everyCode(20),
		everyCode(0),
		dag.GraphPayload{G: sampleGraph()},
	}
	for _, b := range ledBundles() {
		pls = append(pls, b)
	}
	return pls
}

// ledBundles are frames of several items led by each item kind a link
// carries in one: the six slot item kinds, PRGR, BATCH, FLW and CMD.
func ledBundles() []rsm.Bundle {
	tail := []model.Payload{rsm.CommandPayload{Cmd: 5}, rsm.SlotPayload{Slot: 12, Inner: consensus.ReportPayload{K: 2, V: 3}}}
	var out []rsm.Bundle
	for _, lead := range []model.Payload{
		rsm.SlotPayload{Slot: 12, Inner: consensus.LeadDeltaPayload{K: 2, V: 3, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 12, Inner: consensus.ProposalDeltaPayload{K: 2, V: 3, HasV: true, Delta: sampleDelta()}},
		rsm.SlotPayload{Slot: 12, Inner: consensus.ProposalDeltaPayload{K: 2, Delta: quorum.Delta{Base: 6, To: 6}}},
		rsm.SlotPayload{Slot: 12, Inner: consensus.ReportPayload{K: 1, V: 3}},
		rsm.SlotPayload{Slot: 12, Inner: consensus.SawPayload{Q: model.SetOf(0, 1)}},
		rsm.SlotPayload{Slot: 12, Inner: rsm.AckStampPayload{Q: model.SetOf(1, 2), K: 2, Stamp: 13}},
		rsm.ProgressPayload{Slot: 12},
		serve.BatchPayload{ID: serve.BatchID(1, 3), Cmds: []serve.Command{{Client: 2, Seq: 4, Op: 9, Key: 1, Val: -1}}},
		rsm.FollowPayload{Leader: 1},
		rsm.CommandPayload{Cmd: 300},
	} {
		out = append(out, append(rsm.Bundle{lead}, tail...))
	}
	return out
}

// everyCode is a frame whose slot items, on slots s to s + 3, take each of
// the fifteen codes of the grammar once, in the order of the comments, and
// the slot codes: explicit first and on a repeat, one above, and one below
// (the PRGR behind the SACK, and the SAW down to s).
func everyCode(s int) rsm.Bundle {
	add := func(to uint64) quorum.Delta {
		return quorum.Delta{Base: to - 1, To: to, Adds: []quorum.DeltaEntry{{R: 1, Q: model.SetOf(0, 1)}}}
	}
	at := func(to uint64) quorum.Delta { return quorum.Delta{Base: to, To: to} }
	slot := func(s int, inner model.Payload) model.Payload { return rsm.SlotPayload{Slot: s, Inner: inner} }
	return rsm.Bundle{
		slot(s, consensus.LeadDeltaPayload{K: 1, V: 7, Delta: add(6)}),                    // LEADD
		slot(s, consensus.ProposalDeltaPayload{K: 1, V: 7, HasV: true, Delta: at(6)}),     // PROPD ~V~F
		slot(s, consensus.ReportPayload{K: 1, V: 7}),                                      // REP ~V
		slot(s+1, consensus.LeadDeltaPayload{K: 1, V: 7, Delta: at(6)}),                   // LEADD ~V~F
		slot(s+1, consensus.ProposalDeltaPayload{K: 1, Delta: at(6)}),                     // PROPD no V ~F
		slot(s+1, consensus.LeadDeltaPayload{K: 1, V: 8, Delta: at(6)}),                   // LEADD ~F
		slot(s+1, consensus.ProposalDeltaPayload{K: 1, V: 8, HasV: true, Delta: add(7)}),  // PROPD ~V
		slot(s+2, consensus.LeadDeltaPayload{K: 1, V: 8, Delta: add(8)}),                  // LEADD ~V
		slot(s+2, consensus.ProposalDeltaPayload{K: 1, V: 9, HasV: true, Delta: at(8)}),   // PROPD ~F
		slot(s+2, rsm.AckStampPayload{Q: model.SetOf(0, 1), K: 1, Stamp: s + 3}),          // SACK
		rsm.ProgressPayload{Slot: s + 1},                                                  // PRGR
		slot(s+1, consensus.ReportPayload{K: 2, V: 10}),                                   // REP
		slot(s, consensus.SawPayload{Q: model.SetOf(1)}),                                  // SAW
		slot(s+3, consensus.ProposalDeltaPayload{K: 2, V: 11, HasV: true, Delta: add(9)}), // PROPD
		slot(s+3, consensus.ProposalDeltaPayload{K: 2, Delta: add(10)}),                   // PROPD no V
	}
}

// stableValues is one λ-step of a stable run around slot s: every REP,
// PROPD and LEADD carries the leader's proposal 0, so each V-bearing item
// behind the first inherits its V, with and without the history frame,
// and across a PROPD without V.
func stableValues(s int) rsm.Bundle {
	at := quorum.Delta{Base: 6, To: 6}
	return rsm.Bundle{
		rsm.SlotPayload{Slot: s, Inner: consensus.ReportPayload{K: 1, V: 0}},
		rsm.SlotPayload{Slot: s, Inner: consensus.ProposalDeltaPayload{K: 1, V: 0, HasV: true, Delta: at}},
		rsm.SlotPayload{Slot: s + 1, Inner: consensus.LeadDeltaPayload{K: 1, V: 0, Delta: at}},
		rsm.SlotPayload{Slot: s + 1, Inner: consensus.ProposalDeltaPayload{K: 1, Delta: at}},
		rsm.SlotPayload{Slot: s + 1, Inner: consensus.ReportPayload{K: 1, V: 0}},
	}
}

// sampleGraph is a DAG snapshot whose nodes carry every failure-detector
// value kind, a nested pair included, with A_DAG's complete edges into all
// but the last node.
func sampleGraph() *dag.Graph {
	g := dag.NewGraph()
	g.AddSample(0, fd.NullValue{}, 1)
	g.AddSample(1, fd.LeaderValue{Leader: 0}, 1)
	g.AddSample(2, fd.QuorumValue{Quorum: model.SetOf(0, 2)}, 1)
	g.AddSample(0, fd.SuspectsValue{Suspects: model.SetOf(1)}, 2)
	g.AddSampleWithPreds(1, fd.PairValue{
		First:  fd.PairValue{First: fd.LeaderValue{Leader: 2}, Second: fd.NullValue{}},
		Second: fd.QuorumValue{Quorum: model.SetOf(1, 2)},
	}, 2, []int{0, 3})
	return g
}

// seedRejects are inputs no payload encodes to, each of which every
// decode must reject.
func seedRejects(tb testing.TB) []reject {
	tb.Helper()
	var out []reject
	for _, rejects := range []map[string]reject{bundleRejects(tb), headRejects(tb), frameRejects(tb)} {
		for _, r := range rejects {
			out = append(out, r)
		}
	}
	return append(out, reject{{}}, reject{{0xFF, 0x01, 0x02}}, reject{repeatedSample}, reject{pairsDeep(tb, 9)})
}

// FuzzDecodePayload checks the codec's promise on arbitrary input: the
// decoder never panics, and whatever it accepts re-encodes to bytes that
// decode reflect.DeepEqual to what it accepted.
func FuzzDecodePayload(f *testing.F) {
	for _, pl := range seedPayloads() {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range seedRejects(f) {
		f.Add(r.bytes())
	}
	f.Add(pairFlood(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := wire.DecodePayload(data)
		if err != nil {
			return // rejecting garbage is correct
		}
		// Anything accepted must re-encode, to bytes that decode to it again.
		b, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatalf("decoded payload %#v cannot be re-encoded: %v", pl, err)
		}
		again, err := wire.DecodePayload(b)
		if err != nil || !reflect.DeepEqual(again, pl) {
			t.Fatalf("decoded payload %#v re-encodes as %x, which decodes as %#v (err %v)", pl, b, again, err)
		}
		// A history has one encoding: the sets hold exactly the quorums the
		// bytes list, in the order listed. So a decoded LEAD or PROP
		// re-encodes to its input, up to varint padding (the decoder
		// accepts overlong varints anywhere).
		var hist quorum.Histories
		prop := false
		switch p := pl.(type) {
		case consensus.LeadPayload:
			hist = p.Hist
		case consensus.ProposalPayload:
			hist, prop = p.Hist, true
		default:
			return
		}
		listed := listedHistories(data, prop)
		if len(listed) != len(hist) {
			t.Fatalf("%x lists %d history rows, decoded %d", data, len(listed), len(hist))
		}
		for r, set := range hist {
			if !slices.Equal([]model.ProcessSet(set), listed[r]) {
				t.Fatalf("%x lists %v for p%d, decoded %v", data, listed[r], r, set)
			}
		}
	})
}

// listedHistories reads the quorum lists of an accepted LEAD's or PROP's
// histories as its bytes list them, without the decoder: the head byte, K
// and V (and PROP's HasV byte), then a row count and, per row, a count and
// its quorums.
func listedHistories(data []byte, prop bool) [][]model.ProcessSet {
	pos := 1
	next := func() uint64 {
		v, n := binary.Uvarint(data[pos:])
		pos += n
		return v
	}
	next()
	next()
	if prop {
		pos++
	}
	rows := make([][]model.ProcessSet, next())
	for r := range rows {
		for c := next(); c > 0; c-- {
			rows[r] = append(rows[r], model.ProcessSet(next()))
		}
	}
	return rows
}

// FuzzDecodeMessage checks what a tcp link runs on every frame it reads:
// neither the peek nor the decode panics, and a frame the decode accepts
// peeks with the kind and the supersession of the payload it decodes to. A
// netrun reader files a frame by its peek and decodes it only when the
// frame is taken, so the two must agree. A frame is a payload alone, so
// the seeds are the payload seeds.
func FuzzDecodeMessage(f *testing.F) {
	for _, pl := range seedPayloads() {
		b, err := wire.AppendMessage(nil, &model.Message{Payload: pl})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range seedRejects(f) {
		f.Add(r.bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, peekErr := wire.PeekMessage(data)
		var m model.Message
		if err := wire.DecodeMessageInto(&m, data); err != nil {
			return
		}
		if peekErr != nil {
			t.Fatalf("frame %x decodes as %v but fails to peek: %v", data, m.Payload, peekErr)
		}
		_, supersedes := m.Payload.(model.SupersededPayload)
		if want := (wire.MessageHead{Kind: m.Payload.Kind(), Supersedes: supersedes}); h != want {
			t.Fatalf("frame %x decodes as %v, which heads as %+v, but peeks as %+v", data, m.Payload, want, h)
		}
	})
}

// linkStream is the frames of pls on one fresh link, one after another
// as a netrun link carries them.
func linkStream(tb testing.TB, pls []model.Payload) []byte {
	tb.Helper()
	var l wire.Link
	var stream []byte
	for _, pl := range pls {
		var err error
		if stream, err = l.Append(stream, pl); err != nil {
			tb.Fatal(err)
		}
		l.Commit()
	}
	return stream
}

// unterminated is a link's stream whose last frame never gets its last
// item, n bytes long: a steady cycle of a window of two, then the items
// but the last of its steady LEAD and REP frame, each one byte, over and
// over.
func unterminated(tb testing.TB, n int) []byte {
	tb.Helper()
	cycle := append(steadyCycle(40), steadyCycle(42)...)
	stream := linkStream(tb, cycle)
	var l wire.Link
	var frame []byte
	for _, pl := range cycle {
		var err error
		if frame, err = l.Append(frame[:0], pl); err != nil {
			tb.Fatal(err)
		}
		l.Commit()
	}
	lead, err := l.Append(nil, steadyCycle(44)[0])
	if err != nil || len(lead) != 4 {
		tb.Fatalf("the steady LEAD and REP frame is %x (err %v), want one byte per item", lead, err)
	}
	for len(stream) < n {
		stream = append(stream, lead[:3]...)
	}
	return stream[:n]
}

// FuzzDecodeLink checks a link's stream through one Link: the input is cut
// into frames where their last items end (ReadLinkFrame), each decoded by
// the same receiving Link. Nothing panics; the frames cut are the
// stream's first bytes, one after another; after the first frame that
// fails, every later frame fails; and the payloads the receiver accepted,
// sent again through a fresh sending Link, make frames that a reader cuts
// at the same ends and a fresh receiving Link decodes reflect.DeepEqual
// to them — the two ends advance their runs alike, and the reader's walk
// ends each frame where the encoder did.
func FuzzDecodeLink(f *testing.F) {
	seeds := seedPayloads()
	f.Add(linkStream(f, seeds))
	for i := range seeds {
		f.Add(linkStream(f, seeds[i:min(i+4, len(seeds))]))
	}
	// The items of two stable λ-steps, one frame each: every V behind the
	// first is inherited from the frame before it.
	f.Add(linkStream(f, append(stableValues(8), stableValues(10)...)))
	for _, r := range seedRejects(f) {
		f.Add(append(linkStream(f, seeds[:2]), r.bytes()...))
	}
	// A heartbeat and a DAG snapshot between the frames of a window of two,
	// a stream whose last item never comes, and one that passes
	// MaxFrameSize without it.
	f.Add(linkStream(f, []model.Payload{windowTwo(8), hb.HeartbeatPayload{}, windowTwo(9), dag.GraphPayload{G: sampleGraph()}, windowTwo(10)}))
	f.Add(unterminated(f, 64))
	f.Add(unterminated(f, wire.MaxFrameSize+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rx wire.Link
		var accepted []model.Payload
		var cut []byte
		failed := false
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, err := wire.ReadLinkFrame(r)
			if err != nil {
				break
			}
			cut = append(cut, frame...)
			var m model.Message
			err = rx.Decode(&m, frame)
			wire.PutBuf(frame)
			switch {
			case err != nil:
				failed = true
			case failed:
				t.Fatalf("frame %d decoded as %v after a frame failed", len(accepted), m.Payload)
			default:
				accepted = append(accepted, m.Payload)
			}
		}
		if !bytes.HasPrefix(data, cut) {
			t.Fatalf("the frames cut, %x, do not begin the stream", cut)
		}
		var tx, again wire.Link
		var frames [][]byte
		for i, pl := range accepted {
			frame, err := tx.Append(nil, pl)
			if err != nil {
				t.Fatalf("accepted payload %d, %#v, cannot be re-encoded: %v", i, pl, err)
			}
			tx.Commit()
			frames = append(frames, frame)
		}
		r = bufio.NewReader(bytes.NewReader(bytes.Join(frames, nil)))
		for i, pl := range accepted {
			frame, err := wire.ReadLinkFrame(r)
			if err != nil || !bytes.Equal(frame, frames[i]) {
				t.Fatalf("accepted payload %d, %#v, re-encodes as %x, which is read back as %x (err %v)", i, pl, frames[i], frame, err)
			}
			var m model.Message
			if err := again.Decode(&m, frame); err != nil || !reflect.DeepEqual(m.Payload, pl) {
				t.Fatalf("accepted payload %d, %#v, re-encodes as %x, which decodes as %#v (err %v)", i, pl, frame, m.Payload, err)
			}
		}
		if frame, err := wire.ReadLinkFrame(r); err != io.EOF {
			t.Fatalf("past the re-encoded frames the reader cut %x (err %v), want io.EOF", frame, err)
		}
	})
}
