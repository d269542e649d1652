package wire_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/wire"
)

// genLinkPayload draws the next payload a log sends one peer on a link
// whose slots advance from base: mostly bundles (genBundle), and bare
// items of a bundle — slot items, PRGR, CMD, FLW, BATCH — as well as the
// superseding heartbeat and DAG snapshot.
func genLinkPayload(rng *rand.Rand, base int) model.Payload {
	switch rng.Intn(10) {
	case 0:
		return hb.HeartbeatPayload{}
	case 1:
		return dag.GraphPayload{G: sampleGraph()}
	case 2:
		return rsm.ProgressPayload{Slot: base + rng.Intn(2)}
	case 3, 4:
		b := genBundle(rng, base, map[string]int{})
		return b[rng.Intn(len(b))]
	}
	return genBundle(rng, base, map[string]int{})
}

// TestLinkRoundTrip: a seeded stream of bundles and bare items goes
// through a sender's Link and a receiver's. Now and then a frame is never
// sent (it is appended but not committed), and about half the superseding
// frames are dropped before the receiver decodes anything after them, as
// an inbox collapses them. Every frame the receiver decodes is the payload
// sent, and the stream the link carries is shorter than the same payloads
// coded one by one: frames inherit from the frames before them.
func TestLinkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tx, rx wire.Link
	var linkBytes, bareBytes, unsent, dropped, decoded int
	base := 1 << 14
	for i := 0; i < 4000; i++ {
		base += rng.Intn(2)
		if rng.Intn(500) == 0 {
			base = rng.Intn(1 << 40)
		}
		pl := genLinkPayload(rng, base)
		frame, err := tx.Append(nil, pl)
		if err != nil {
			t.Fatalf("frame %d, %v: %v", i, pl, err)
		}
		if rng.Intn(20) == 0 {
			unsent++ // the send failed: not committed, and never read
			continue
		}
		tx.Commit()
		bare, err := wire.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		linkBytes, bareBytes = linkBytes+len(frame), bareBytes+len(bare)
		if _, ok := pl.(model.SupersededPayload); ok && rng.Intn(2) == 0 {
			dropped++ // collapsed in the inbox, undecoded
			continue
		}
		m := model.Message{From: 1, To: 2, Seq: uint64(i)}
		if err := rx.Decode(&m, frame); err != nil || !reflect.DeepEqual(m.Payload, pl) {
			t.Fatalf("frame %d %x decodes as %v (err %v), want %v", i, frame, m.Payload, err, pl)
		}
		if m.From != 1 || m.To != 2 || m.Seq != uint64(i) {
			t.Fatalf("frame %d renamed the message to %v", i, &m)
		}
		decoded++
	}
	if unsent < 100 || dropped < 100 || decoded < 3000 {
		t.Errorf("%d frames unsent, %d dropped and %d decoded: the stream exercises too little", unsent, dropped, decoded)
	}
	if linkBytes >= bareBytes {
		t.Errorf("the link carried %d bytes, the same payloads coded one by one %d", linkBytes, bareBytes)
	}
	t.Logf("%d bytes on the link, %d coded one by one", linkBytes, bareBytes)
}

// TestLinkSupersedingFrameInheritsNothing: a heartbeat and a DAG snapshot,
// the frames an inbox may drop undecoded, hold no slot item: they are
// coded as on a fresh link and leave the link's run as it was, so the
// frame after them is the same whether or not they were sent.
func TestLinkSupersedingFrameInheritsNothing(t *testing.T) {
	rep := rsm.SlotPayload{Slot: 900, Inner: consensus.ReportPayload{K: 3, V: 1}}
	next := rsm.SlotPayload{Slot: 901, Inner: consensus.ReportPayload{K: 3, V: 2}}
	for _, sup := range []model.Payload{hb.HeartbeatPayload{}, dag.GraphPayload{G: sampleGraph()}} {
		var with, without wire.Link
		send := func(l *wire.Link, pl model.Payload) []byte {
			frame, err := l.Append(nil, pl)
			if err != nil {
				t.Fatal(err)
			}
			l.Commit()
			return frame
		}
		send(&with, rep)
		send(&without, rep)
		frame := send(&with, sup)
		if bare, _ := wire.EncodePayload(sup); !bytes.Equal(frame, bare) {
			t.Errorf("%v on a used link is %x, on a fresh one %x", sup, frame, bare)
		}
		if a, b := send(&with, next), send(&without, next); !bytes.Equal(a, b) {
			t.Errorf("after %v the next frame is %x, without it %x", sup, a, b)
		}
	}
}

// TestLinkBarePRGRInheritsSlot: a bare PRGR that follows a slot item on
// its link is a slot item like any other: its head byte carries the slot
// code it inherits instead of an explicit varint — one below, one above,
// or a delta where that is shorter, as for its own slot (a delta of 0) —
// the receiver's link decodes it back, and its peek does not supersede,
// so no inbox drops it out of the run.
func TestLinkBarePRGRInheritsSlot(t *testing.T) {
	rep := rsm.SlotPayload{Slot: 900, Inner: consensus.ReportPayload{K: 3, V: 1}}
	for _, tc := range []struct {
		floor int
		want  []byte
	}{
		{899, []byte{head(hPrgr, hPrev, false)}},
		{900, []byte{head(hPrgr, hDelta, false), 0}},
		{901, []byte{head(hPrgr, hNext, false)}},
		{902, []byte{head(hPrgr, hDelta, false), 4}},
		{5, []byte{head(hPrgr, hExplicit, false), 5}},
	} {
		var tx, rx wire.Link
		var m model.Message
		for _, pl := range []model.Payload{rep, rsm.ProgressPayload{Slot: tc.floor}} {
			frame, err := tx.Append(nil, pl)
			if err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			if err := rx.Decode(&m, frame); err != nil || !reflect.DeepEqual(m.Payload, pl) {
				t.Fatalf("%v: frame %x decodes as %v (err %v)", pl, frame, m.Payload, err)
			}
			if _, ok := pl.(rsm.ProgressPayload); !ok {
				continue
			}
			if !bytes.Equal(frame, tc.want) {
				t.Errorf("%v after %v is %x, want %x", pl, rep, frame, tc.want)
			}
			if h, err := wire.PeekMessage(frame); err != nil || h.Supersedes {
				t.Errorf("peek of %v = %+v (err %v), want no supersession", pl, h, err)
			}
		}
	}
}

// TestLinkLatchesError: a forged frame fails to decode, and so does every
// frame after it on that link — a valid one included, which a fresh link
// decodes: the receiver's run cannot be trusted past a frame it could not
// read.
func TestLinkLatchesError(t *testing.T) {
	var tx, rx wire.Link
	send := func(pl model.Payload) []byte {
		frame, err := tx.Append(nil, pl)
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		return frame
	}
	lead := rsm.SlotPayload{Slot: 40, Inner: consensus.LeadDeltaPayload{K: 2, V: 1, Delta: sampleDelta()}}
	var m model.Message
	if err := rx.Decode(&m, send(lead)); err != nil {
		t.Fatal(err)
	}
	for name, forged := range headRejects(t) {
		rx := rx // a copy of the receiver after the LEADD
		if err := rx.Decode(&m, forged.bytes()); err == nil {
			// Behind the LEADD a bare slot item may inherit: only the
			// rejects no slot item before them can rescue are forged here.
			continue
		}
		cmd := send(rsm.CommandPayload{Cmd: 3})
		if err := wire.DecodeMessageInto(&m, cmd); err != nil {
			t.Fatal(err)
		}
		if err := rx.Decode(&m, cmd); err == nil {
			t.Errorf("%s: a valid frame decoded after it", name)
		}
	}
	// Cut short, a frame fails too.
	frame := send(rsm.SlotPayload{Slot: 41, Inner: consensus.ReportPayload{K: 2, V: 1}})
	if err := rx.Decode(&m, frame[:len(frame)-1]); err == nil {
		t.Fatal("a truncated frame decoded")
	}
	if err := rx.Decode(&m, send(rsm.CommandPayload{Cmd: 4})); err == nil {
		t.Error("a valid frame decoded after a truncated one")
	}
}

// windowTwo is one λ-step of a window-2 log sending a peer its traffic
// while slot s is the floor: the floor, the slot's REP and SACK, and the
// LEADD of slot s + 1 at the history version the last frame left.
func windowTwo(s int) rsm.Bundle {
	return rsm.Bundle{
		rsm.ProgressPayload{Slot: s},
		rsm.SlotPayload{Slot: s, Inner: consensus.ReportPayload{K: 1, V: 7}},
		rsm.SlotPayload{Slot: s, Inner: rsm.AckStampPayload{Q: model.SetOf(0, 1), K: 1, Stamp: s + 1}},
		rsm.SlotPayload{Slot: s + 1, Inner: consensus.LeadDeltaPayload{K: 1, V: 8, Delta: quorum.Delta{Base: 6, To: 6}}},
	}
}

// TestLinkFrameLenFlatInSlot: on a warmed link the same bundle shape costs
// the same bytes at slot 10 as at slot 1<<40 — what a slot costs does not
// grow with the age of the log.
func TestLinkFrameLenFlatInSlot(t *testing.T) {
	size := func(s int) int {
		var l wire.Link
		var frame []byte
		for _, at := range []int{s - 2, s - 1, s} {
			var err error
			if frame, err = l.Append(frame[:0], windowTwo(at)); err != nil {
				t.Fatal(err)
			}
			l.Commit()
		}
		return len(frame)
	}
	if young, old := size(10), size(1<<40); young != old {
		t.Errorf("a window-2 bundle takes %d bytes at slot 10 and %d at slot 1<<40", young, old)
	}
}

// TestLinkInheritsValue: on a link, a LEADD, PROPD or REP whose V is the
// last V written writes none, from frame to frame; a fresh link and a
// changed V write it. A PROPD without V leaves the run's V as it was, and
// so does a superseding frame, whether the receiver's inbox drops it or
// decodes it; a frame that is never sent leaves the run as it was.
func TestLinkInheritsValue(t *testing.T) {
	at := quorum.Delta{Base: 6, To: 6}
	lead := func(s, v int) model.Payload {
		return rsm.SlotPayload{Slot: s, Inner: consensus.LeadDeltaPayload{K: 1, V: v, Delta: at}}
	}
	prop := func(s, v int, hasV bool) model.Payload {
		return rsm.SlotPayload{Slot: s, Inner: consensus.ProposalDeltaPayload{K: 1, V: v, HasV: hasV, Delta: at}}
	}
	rep := func(s, v int) model.Payload {
		return rsm.SlotPayload{Slot: s, Inner: consensus.ReportPayload{K: 1, V: v}}
	}
	const sent, dropped, unsent = 0, 1, 2
	var tx, rx wire.Link
	for _, step := range []struct {
		what string
		pl   model.Payload
		fate int
		want []byte // nil: the payload's encoding on a fresh link
	}{
		{"a LEADD on a fresh link writes V 7", lead(10, 7), sent, []byte{head(hLead, hExplicit, true), 10, 14, 12}},
		{"a REP of V 7 inherits it", rep(11, 7), sent, []byte{head(hRepSameV, hNext, true)}},
		{"a PROPD of V 7 inherits it and the frame", prop(10, 7, true), sent, []byte{head(hPropVSameVF, hPrev, true)}},
		{"a PROPD without V", prop(11, 0, false), sent, []byte{head(hPropSameF, hNext, true)}},
		{"leaves V 7 to the REP behind it", rep(10, 7), sent, []byte{head(hRepSameV, hPrev, true)}},
		{"a heartbeat the inbox drops", hb.HeartbeatPayload{}, dropped, nil},
		{"a DAG snapshot the receiver decodes", dag.GraphPayload{G: sampleGraph()}, sent, nil},
		{"leave V 7 to the LEADD behind them", lead(11, 7), sent, []byte{head(hLeadSameVF, hNext, true)}},
		{"a REP of V 8 writes it", rep(12, 8), sent, []byte{head(hRep, hNext, true), 16}},
		{"a LEADD of V 9 never sent", lead(13, 9), unsent, []byte{head(hLeadSameF, hNext, true), 18}},
		{"leaves V 8 and slot 12: a REP of V 9 writes it", rep(11, 9), sent, []byte{head(hRep, hPrev, true), 18}},
		{"a REP on its slot again", rep(11, 9), sent, []byte{head(hRepSameV, hExplicit, true), 11}},
	} {
		frame, err := tx.Append(nil, step.pl)
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		want := step.want
		if want == nil {
			want, _ = wire.EncodePayload(step.pl)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: %v is %x, want %x", step.what, step.pl, frame, want)
		}
		if step.fate == unsent {
			continue
		}
		tx.Commit()
		if step.fate == dropped {
			continue
		}
		var m model.Message
		if err := rx.Decode(&m, frame); err != nil || !reflect.DeepEqual(m.Payload, step.pl) {
			t.Fatalf("%s: %x decodes as %v (err %v), want %v", step.what, frame, m.Payload, err, step.pl)
		}
	}
}

// TestSteadyCycleOneBytePerItem: a served window of two in its steady
// state sends each peer LEAD(s) LEAD(s+1) REP(s) REP(s+1) in one frame and
// PROP(s) PROP(s+1) in the next, every item in round 1 with the leader's
// proposal and no history adds. Past the link's first frame each item
// steps one slot up or one back and inherits round, V and frame, so it is
// its head byte alone.
func TestSteadyCycleOneBytePerItem(t *testing.T) {
	const v = -1 // the no-op an idle leader proposes
	at := quorum.Delta{Base: 3, To: 3}
	lead := func(s int) model.Payload {
		return rsm.SlotPayload{Slot: s, Inner: consensus.LeadDeltaPayload{K: 1, V: v, Delta: at}}
	}
	rep := func(s int) model.Payload {
		return rsm.SlotPayload{Slot: s, Inner: consensus.ReportPayload{K: 1, V: v}}
	}
	prop := func(s int) model.Payload {
		return rsm.SlotPayload{Slot: s, Inner: consensus.ProposalDeltaPayload{K: 1, V: v, HasV: true, Delta: at}}
	}
	var tx, rx wire.Link
	for s := 1000; s < 1040; s += 2 {
		for i, b := range []rsm.Bundle{{lead(s), lead(s + 1), rep(s), rep(s + 1)}, {prop(s), prop(s + 1)}} {
			frame, err := tx.Append(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			var m model.Message
			if err := rx.Decode(&m, frame); err != nil || !reflect.DeepEqual(m.Payload, model.Payload(b)) {
				t.Fatalf("%v: %x decodes as %v (err %v)", b, frame, m.Payload, err)
			}
			if first := s == 1000 && i == 0; !first && len(frame) != len(b) {
				t.Errorf("%v is %d bytes (%x), want %d: one per item", b, len(frame), frame, len(b))
			}
		}
	}
}
