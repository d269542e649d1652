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
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// seedPayloads are the payloads the fuzz targets start from: the kinds a
// link carries, bare and bundled, and a DAG snapshot whose nodes carry every
// failure-detector value kind.
func seedPayloads() []model.Payload {
	return []model.Payload{
		consensus.LeadPayload{K: 3, V: -7, Hist: sampleHistories()},
		consensus.ReportPayload{K: 2, V: 42},
		consensus.ProposalPayload{K: 5},
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
		dag.GraphPayload{G: sampleGraph()},
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
func seedRejects(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, rejects := range []map[string][]byte{bundleRejects(tb), headRejects(tb), frameRejects(tb)} {
		for _, b := range rejects {
			out = append(out, b)
		}
	}
	return append(out, []byte{}, []byte{0xFF, 0x01, 0x02}, repeatedSample, pairsDeep(tb, 9))
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
	for _, b := range seedRejects(f) {
		f.Add(b)
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
	})
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
	for _, b := range seedRejects(f) {
		f.Add(b)
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

// linkStream is the frames of pls on one fresh link, each behind its
// varint length as a netrun link carries them.
func linkStream(tb testing.TB, pls []model.Payload) []byte {
	tb.Helper()
	var l wire.Link
	var stream []byte
	for _, pl := range pls {
		frame, err := l.Append(nil, pl)
		if err != nil {
			tb.Fatal(err)
		}
		l.Commit()
		stream = append(binary.AppendUvarint(stream, uint64(len(frame))), frame...)
	}
	return stream
}

// FuzzDecodeLink checks a frame sequence through one Link: the input is
// read as length-prefixed frames (ReadFrame), each decoded by the same
// receiving Link. Nothing panics; after the first frame that fails, every
// later frame fails; and the payloads the receiver accepted, sent again
// through a fresh sending Link, make frames a fresh receiving Link decodes
// reflect.DeepEqual to them — the two ends advance their runs alike.
func FuzzDecodeLink(f *testing.F) {
	seeds := seedPayloads()
	f.Add(linkStream(f, seeds))
	for i := range seeds {
		f.Add(linkStream(f, seeds[i:min(i+4, len(seeds))]))
	}
	for _, b := range seedRejects(f) {
		f.Add(append(linkStream(f, seeds[:2]), append(binary.AppendUvarint(nil, uint64(len(b))), b...)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var rx wire.Link
		var accepted []model.Payload
		failed := false
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, err := wire.ReadFrame(r)
			if err != nil {
				break
			}
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
		var tx, again wire.Link
		for i, pl := range accepted {
			frame, err := tx.Append(nil, pl)
			if err != nil {
				t.Fatalf("accepted payload %d, %#v, cannot be re-encoded: %v", i, pl, err)
			}
			tx.Commit()
			var m model.Message
			if err := again.Decode(&m, frame); err != nil || !reflect.DeepEqual(m.Payload, pl) {
				t.Fatalf("accepted payload %d, %#v, re-encodes as %x, which decodes as %#v (err %v)", i, pl, frame, m.Payload, err)
			}
		}
	})
}
