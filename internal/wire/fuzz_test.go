package wire_test

import (
	"reflect"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// FuzzDecodePayload checks the codec's promise on arbitrary input: the
// decoder never panics, and whatever it accepts re-encodes to bytes that
// decode reflect.DeepEqual to what it accepted.
func FuzzDecodePayload(f *testing.F) {
	seed := []model.Payload{
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
	}
	for _, pl := range seed {
		b, err := wire.EncodePayload(pl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, bundle := range []rsm.Bundle{
		sampleBundle(),
		// One λ-step of a window of three: each slot's LEAD on the next slot,
		// with the round and the frame of the one before.
		{
			rsm.SlotPayload{Slot: 4, Inner: consensus.LeadDeltaPayload{K: 1, V: 3, Delta: sampleDelta()}},
			rsm.SlotPayload{Slot: 5, Inner: consensus.LeadDeltaPayload{K: 1, V: 4, Delta: quorum.Delta{Base: 6, To: 6}}},
			rsm.SlotPayload{Slot: 6, Inner: consensus.LeadDeltaPayload{K: 1, V: 5, Delta: quorum.Delta{Base: 6, To: 6}}},
		},
	} {
		b, err := wire.EncodePayload(bundle)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range bundleRejects(f) {
		f.Add(b)
	}
	for _, b := range headRejects(f) {
		f.Add(b)
	}
	for _, b := range frameRejects(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})

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

// FuzzDecodeValue does the same for failure-detector values.
func FuzzDecodeValue(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{2, 4})
	f.Add([]byte{5, 1, 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.DecodeValue(data)
		if err != nil {
			return
		}
		if _, err := wire.EncodeValue(v); err != nil {
			t.Fatalf("decoded value %#v cannot be re-encoded: %v", v, err)
		}
	})
}
