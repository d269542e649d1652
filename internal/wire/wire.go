// Package wire defines a compact binary encoding for every message payload
// and failure-detector value in the repository, so the algorithms can run
// over real byte-stream transports (see internal/netrun). The format is
// deterministic and self-describing at the payload level:
//
//	payload  := kindTag … (per-kind body)
//	outer    := payload | bundleTag item item item*   (items run to the end)
//	item     := payload, or a slot's inner payload when the slot item before it has its slot
//	slot     := varint                         (SLOT and PRGR: slots are never negative)
//	LEADD    := leadDeltaTag K V varint(To<<1 | hasAdds) adds
//	PROPD    := propDeltaTag K V varint(To<<2 | HasV<<1 | hasAdds) adds
//	adds     := count (R Q)^count when hasAdds, else nothing (1 ≤ count ≤ To)
//	BATCH    := batchTag ID count command^count
//	command  := varint(Client<<3 | min(Op, 7)) [Op when Op ≥ 7] Seq Key Val
//	fdvalue  := valueTag … (leader | quorum | suspects | pair | null)
//	varint   := unsigned LEB128 (encoding/binary Uvarint); signed fields zigzag
//
// A history frame (the To varint and its adds) carries no Base: every
// delta spans exactly its adds (quorum.Delta), so the decoder rebuilds
// Base as To − count, and a frame without adds is one varint. BATCH bodies
// and the client request frame share the command encoding. Full quorum
// histories travel as, per process, a count followed by that many 64-bit
// process sets; DAG snapshots as a node list plus per-node predecessor
// bitsets. Everything round-trips exactly (TestRoundTrip*).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/transform"
)

// Payload kind tags.
const (
	tagLead byte = iota + 1
	tagReport
	tagProposal
	tagSaw
	tagAck
	tagRound
	tagHeartbeat
	tagGraph
	tagSlot
	tagProgress
	tagCommand
	tagEstimate
	tagCoord
	tagReply
	tagDecide
	tagLeadDelta
	tagProposalDelta
	tagBatch
	tagServeRequest
	tagServeReply
	tagAckStamp
	tagBundle
	tagSlotNext // inside a bundle only: the wrapper of the next slot's item
)

// Failure-detector value tags.
const (
	tagValNull byte = iota + 1
	tagValLeader
	tagValQuorum
	tagValSuspects
	tagValPair
)

// buf is a cursor over an encode/decode buffer.
type buf struct {
	b   []byte
	pos int
}

func (w *buf) putUvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *buf) putByte(v byte)      { w.b = append(w.b, v) }

// putInt zigzag-encodes a signed integer (proposal values may be negative).
func (w *buf) putInt(v int) {
	x := int64(v)
	w.putUvarint(uint64((x << 1) ^ (x >> 63)))
}

// putInt64 zigzag-encodes a signed 64-bit value (serve command values).
func (w *buf) putInt64(x int64) {
	w.putUvarint(uint64((x << 1) ^ (x >> 63)))
}

// putSlot writes a slot number as a plain varint: slots are never
// negative, so they need no zigzag.
func (w *buf) putSlot(slot int) error {
	if slot < 0 {
		return fmt.Errorf("wire: negative slot %d", slot)
	}
	w.putUvarint(uint64(slot))
	return nil
}

// flag is a boolean as one bit.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (r *buf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *buf) byte() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, fmt.Errorf("wire: truncated byte at offset %d", r.pos)
	}
	v := r.b[r.pos]
	r.pos++
	return v, nil
}

func (r *buf) slot() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt {
		return 0, fmt.Errorf("wire: slot %d out of range", v)
	}
	return int(v), nil
}

func (r *buf) int() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int(int64(v>>1) ^ -int64(v&1)), nil
}

func (r *buf) int64() (int64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

// EncodePayload serializes any payload defined by this repository.
func EncodePayload(pl model.Payload) ([]byte, error) {
	return AppendPayload(nil, pl)
}

// AppendPayload appends pl's encoding to dst and returns the extended
// slice. Encoding into a reused buffer (dst[:0] of a previous frame, or a
// GetBuf lease) is the allocation-free hot path; EncodePayload is the
// convenience wrapper that starts from nil.
func AppendPayload(dst []byte, pl model.Payload) ([]byte, error) {
	w := buf{b: dst}
	if err := encodeOuter(&w, pl); err != nil {
		return dst, err
	}
	return w.b, nil
}

func encodePayload(w *buf, pl model.Payload) error {
	switch p := pl.(type) {
	case consensus.LeadPayload:
		w.putByte(tagLead)
		w.putInt(p.K)
		w.putInt(p.V)
		encodeHistories(w, p.Hist)
	case consensus.ReportPayload:
		w.putByte(tagReport)
		w.putInt(p.K)
		w.putInt(p.V)
	case consensus.ProposalPayload:
		w.putByte(tagProposal)
		w.putInt(p.K)
		w.putInt(p.V)
		w.putByte(byte(flag(p.HasV)))
		encodeHistories(w, p.Hist)
	case consensus.SawPayload:
		w.putByte(tagSaw)
		w.putUvarint(uint64(p.Q))
	case consensus.AckPayload:
		w.putByte(tagAck)
		w.putUvarint(uint64(p.Q))
		w.putInt(p.K)
	case transform.RoundPayload:
		w.putByte(tagRound)
		w.putInt(p.K)
	case hb.HeartbeatPayload:
		w.putByte(tagHeartbeat)
	case dag.GraphPayload:
		w.putByte(tagGraph)
		return encodeGraph(w, p.G)
	case rsm.SlotPayload:
		w.putByte(tagSlot)
		if err := w.putSlot(p.Slot); err != nil {
			return err
		}
		return encodePayload(w, p.Inner)
	case rsm.ProgressPayload:
		w.putByte(tagProgress)
		return w.putSlot(p.Slot)
	case rsm.CommandPayload:
		w.putByte(tagCommand)
		w.putInt(p.Cmd)
	case consensus.EstimatePayload:
		w.putByte(tagEstimate)
		w.putInt(p.R)
		w.putInt(p.V)
		w.putInt(p.TS)
	case consensus.CoordPayload:
		w.putByte(tagCoord)
		w.putInt(p.R)
		w.putInt(p.V)
	case consensus.ReplyPayload:
		w.putByte(tagReply)
		w.putInt(p.R)
		w.putByte(byte(flag(p.Ok)))
	case consensus.DecidePayload:
		w.putByte(tagDecide)
		w.putInt(p.V)
	case consensus.LeadDeltaPayload:
		w.putByte(tagLeadDelta)
		w.putInt(p.K)
		w.putInt(p.V)
		return encodeFrame(w, p.Delta, 0, 0)
	case consensus.ProposalDeltaPayload:
		w.putByte(tagProposalDelta)
		w.putInt(p.K)
		w.putInt(p.V)
		return encodeFrame(w, p.Delta, 1, flag(p.HasV))
	case rsm.AckStampPayload:
		w.putByte(tagAckStamp)
		w.putUvarint(uint64(p.Q))
		w.putInt(p.K)
		w.putInt(p.Stamp)
	case serve.BatchPayload:
		w.putByte(tagBatch)
		w.putInt(p.ID)
		w.putUvarint(uint64(len(p.Cmds)))
		for _, c := range p.Cmds {
			encodeCommand(w, c)
		}
	case serve.RequestPayload:
		w.putByte(tagServeRequest)
		encodeCommand(w, serve.Command{Client: p.Client, Seq: p.Seq, Op: p.Op, Key: p.Key, Val: p.Val})
		w.putByte(byte(flag(p.Lin)))
		w.putInt64(p.T0)
	case serve.ReplyPayload:
		w.putByte(tagServeReply)
		w.putUvarint(uint64(p.Client))
		w.putUvarint(p.Seq)
		w.putByte(p.Status)
		w.putInt64(p.Val)
		w.putInt64(p.T0)
	default:
		return fmt.Errorf("wire: unknown payload type %T", pl)
	}
	return nil
}

// encodeCommand writes one serve command — the unit both the BATCH gossip
// and the client request frame share. Op rides in the low three bits of
// the client varint; opEscape there means the op byte follows.
func encodeCommand(w *buf, c serve.Command) {
	op := min(c.Op, opEscape)
	w.putUvarint(uint64(c.Client)<<3 | uint64(op))
	if op == opEscape {
		w.putByte(c.Op)
	}
	w.putUvarint(c.Seq)
	w.putUvarint(c.Key)
	w.putInt64(c.Val)
}

// opEscape in a command's low three bits: the op is ≥ 7 and follows.
const opEscape = 7

func decodeCommand(r *buf) (serve.Command, error) {
	var c serve.Command
	head, err := r.uvarint()
	if err != nil {
		return c, err
	}
	if head>>3 > 0xffffffff {
		return c, fmt.Errorf("wire: client id %d exceeds 32 bits", head>>3)
	}
	c.Client, c.Op = uint32(head>>3), byte(head&7)
	if c.Op == opEscape {
		if c.Op, err = r.byte(); err != nil {
			return c, err
		}
		if c.Op < opEscape {
			return c, fmt.Errorf("wire: escaped op %d fits the client varint", c.Op)
		}
	}
	if c.Seq, err = r.uvarint(); err != nil {
		return c, err
	}
	if c.Key, err = r.uvarint(); err != nil {
		return c, err
	}
	if c.Val, err = r.int64(); err != nil {
		return c, err
	}
	return c, nil
}

// DecodePayload parses a payload produced by EncodePayload.
func DecodePayload(b []byte) (model.Payload, error) {
	r := &buf{b: b}
	pl, err := decodeOuter(r)
	if err != nil {
		return nil, err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after payload", len(b)-r.pos)
	}
	return pl, nil
}

func decodePayload(r *buf) (model.Payload, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagLead:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		h, err := decodeHistories(r)
		if err != nil {
			return nil, err
		}
		return consensus.LeadPayload{K: k, V: v, Hist: h}, nil
	case tagReport:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		return consensus.ReportPayload{K: k, V: v}, nil
	case tagProposal:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		hasV, err := r.byte()
		if err != nil {
			return nil, err
		}
		h, err := decodeHistories(r)
		if err != nil {
			return nil, err
		}
		return consensus.ProposalPayload{K: k, V: v, HasV: hasV == 1, Hist: h}, nil
	case tagSaw:
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		return consensus.SawPayload{Q: model.ProcessSet(q)}, nil
	case tagAck:
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		return consensus.AckPayload{Q: model.ProcessSet(q), K: k}, nil
	case tagRound:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		return transform.RoundPayload{K: k}, nil
	case tagHeartbeat:
		return hb.HeartbeatPayload{}, nil
	case tagGraph:
		g, err := decodeGraph(r)
		if err != nil {
			return nil, err
		}
		return dag.GraphPayload{G: g}, nil
	case tagSlot:
		slot, err := r.slot()
		if err != nil {
			return nil, err
		}
		inner, err := decodePayload(r)
		if err != nil {
			return nil, err
		}
		return rsm.SlotPayload{Slot: slot, Inner: inner}, nil
	case tagProgress:
		slot, err := r.slot()
		if err != nil {
			return nil, err
		}
		return rsm.ProgressPayload{Slot: slot}, nil
	case tagCommand:
		cmd, err := r.int()
		if err != nil {
			return nil, err
		}
		return rsm.CommandPayload{Cmd: cmd}, nil
	case tagEstimate:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		ts, err := r.int()
		if err != nil {
			return nil, err
		}
		return consensus.EstimatePayload{R: k, V: v, TS: ts}, nil
	case tagCoord:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		return consensus.CoordPayload{R: k, V: v}, nil
	case tagReply:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		ok, err := r.byte()
		if err != nil {
			return nil, err
		}
		return consensus.ReplyPayload{R: k, Ok: ok == 1}, nil
	case tagDecide:
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		return consensus.DecidePayload{V: v}, nil
	case tagLeadDelta:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		d, _, err := decodeFrame(r, 0)
		if err != nil {
			return nil, err
		}
		return consensus.LeadDeltaPayload{K: k, V: v, Delta: d}, nil
	case tagProposalDelta:
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		d, hasV, err := decodeFrame(r, 1)
		if err != nil {
			return nil, err
		}
		return consensus.ProposalDeltaPayload{K: k, V: v, HasV: hasV == 1, Delta: d}, nil
	case tagAckStamp:
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		stamp, err := r.int()
		if err != nil {
			return nil, err
		}
		return rsm.AckStampPayload{Q: model.ProcessSet(q), K: k, Stamp: stamp}, nil
	case tagBatch:
		id, err := r.int()
		if err != nil {
			return nil, err
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// Every command costs at least four bytes; a count exceeding the
		// remaining input is forged — reject before allocating.
		if n > uint64(len(r.b)-r.pos)/4 {
			return nil, fmt.Errorf("wire: batch claims %d commands but only %d bytes remain", n, len(r.b)-r.pos)
		}
		b := serve.BatchPayload{ID: id}
		if n > 0 {
			b.Cmds = make([]serve.Command, n)
			for i := range b.Cmds {
				if b.Cmds[i], err = decodeCommand(r); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	case tagServeRequest:
		c, err := decodeCommand(r)
		if err != nil {
			return nil, err
		}
		lin, err := r.byte()
		if err != nil {
			return nil, err
		}
		t0, err := r.int64()
		if err != nil {
			return nil, err
		}
		return serve.RequestPayload{Client: c.Client, Seq: c.Seq, Op: c.Op, Key: c.Key, Val: c.Val, Lin: lin == 1, T0: t0}, nil
	case tagServeReply:
		client, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if client > 0xffffffff {
			return nil, fmt.Errorf("wire: client id %d exceeds 32 bits", client)
		}
		seq, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		status, err := r.byte()
		if err != nil {
			return nil, err
		}
		val, err := r.int64()
		if err != nil {
			return nil, err
		}
		t0, err := r.int64()
		if err != nil {
			return nil, err
		}
		return serve.ReplyPayload{Client: uint32(client), Seq: seq, Status: status, Val: val, T0: t0}, nil
	default:
		return nil, fmt.Errorf("wire: unknown payload tag %d", tag)
	}
}

// encodeOuter writes a payload in the one position a bundle may take: the
// whole payload of a frame. Everywhere below it encodePayload rejects one.
func encodeOuter(w *buf, pl model.Payload) error {
	if b, ok := pl.(rsm.Bundle); ok {
		return encodeBundle(w, b)
	}
	return encodePayload(w, pl)
}

func decodeOuter(r *buf) (model.Payload, error) {
	if r.pos < len(r.b) && r.b[r.pos] == tagBundle {
		r.pos++
		return decodeBundle(r)
	}
	return decodePayload(r)
}

// elidable reports whether a bundled slot item may drop its SlotPayload
// wrapper when it is for the same slot as the slot item before it: its inner
// payload is one of the five kinds the log sends its peers inside a slot.
// The decoder reads a bare item of these tags as that slot's.
func elidable(inner model.Payload) bool {
	switch inner.(type) {
	case consensus.LeadDeltaPayload, consensus.ProposalDeltaPayload, consensus.ReportPayload,
		consensus.SawPayload, rsm.AckStampPayload:
		return true
	}
	return false
}

// encodeBundle writes tagBundle and then the items back to back, up to the
// end of the payload: a bundle is always outermost, so it needs no count. A
// slot item for the slot of the slot item before it travels without its
// wrapper (elidable), and one for the next slot up has its wrapper shrunk to
// the one byte tagSlotNext, whatever its inner kind — a step that advances
// a window sends its slots in ascending order. A bundle holds at least two
// items and never a bundle, and a bare item of an elidable kind has no
// encoding inside one.
func encodeBundle(w *buf, b rsm.Bundle) error {
	if len(b) < 2 {
		return fmt.Errorf("wire: bundle of %d items", len(b))
	}
	w.putByte(tagBundle)
	slot, inSlot := 0, false
	for _, pl := range b {
		switch p := pl.(type) {
		case rsm.SlotPayload:
			if p.Slot < 0 {
				return fmt.Errorf("wire: negative slot %d", p.Slot)
			}
			switch {
			case inSlot && p.Slot == slot && elidable(p.Inner):
				pl = p.Inner
			case inSlot && p.Slot == slot+1:
				w.putByte(tagSlotNext)
				pl = p.Inner
			}
			slot, inSlot = p.Slot, true
		default:
			if elidable(pl) {
				return fmt.Errorf("wire: bundled %s outside a slot", pl.Kind())
			}
		}
		if err := encodePayload(w, pl); err != nil {
			return err
		}
	}
	return nil
}

// decodeBundle reads a bundle's items (tagBundle already consumed) to the
// end of the input, putting back the slot wrapper encodeBundle left off or
// shrunk.
func decodeBundle(r *buf) (rsm.Bundle, error) {
	b := make(rsm.Bundle, 0, 4)
	slot, inSlot := 0, false
	for r.pos < len(r.b) {
		if r.b[r.pos] == tagSlotNext {
			if !inSlot {
				return nil, fmt.Errorf("wire: slot switch before any slot item")
			}
			if slot == math.MaxInt {
				return nil, fmt.Errorf("wire: slot switch past slot %d", slot)
			}
			r.pos++
			inner, err := decodePayload(r) // rejects tagSlotNext and tagBundle
			if err != nil {
				return nil, err
			}
			slot++
			b = append(b, rsm.SlotPayload{Slot: slot, Inner: inner})
			continue
		}
		pl, err := decodePayload(r) // rejects tagBundle: bundles do not nest
		if err != nil {
			return nil, err
		}
		switch p := pl.(type) {
		case rsm.SlotPayload:
			slot, inSlot = p.Slot, true
		default:
			if elidable(pl) {
				if !inSlot {
					return nil, fmt.Errorf("wire: bundled %s before any slot item", pl.Kind())
				}
				pl = rsm.SlotPayload{Slot: slot, Inner: pl}
			}
		}
		b = append(b, pl)
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("wire: bundle of %d items", len(b))
	}
	return b, nil
}

// encodeHistories writes a quorum.Histories (nil allowed). Each set's
// quorums travel in ascending order; the sort scratch lives on the stack,
// so steady-state encoding of history-bearing payloads allocates nothing
// unless one set holds more than 64 quorums.
func encodeHistories(w *buf, h quorum.Histories) {
	w.putUvarint(uint64(len(h)))
	var stack [64]model.ProcessSet
	qs := stack[:0]
	for _, set := range h {
		qs = set.AppendSorted(qs[:0])
		w.putUvarint(uint64(len(qs)))
		for _, q := range qs {
			w.putUvarint(uint64(q))
		}
	}
}

func decodeHistories(r *buf) (quorum.Histories, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > model.MaxProcesses {
		return nil, fmt.Errorf("wire: histories for %d processes", n)
	}
	h := quorum.NewHistories(int(n))
	for i := 0; i < int(n); i++ {
		cnt, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < cnt; j++ {
			q, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			h.Add(model.ProcessID(i), model.ProcessSet(q))
		}
	}
	return h, nil
}

// encodeFrame writes a history delta as its frame: one varint
// (To<<nflag | flags)<<1 | hasAdds, then the add count and the adds only
// when hasAdds is set. Base does not travel: every delta spans exactly its
// adds (quorum.Versioned, snapshots included), so the decoder rebuilds it
// as To − len(Adds), and the encoder rejects a delta that does not. flags
// are nflag bits of the payload's own folded into the same varint (PROPD's
// HasV). The producer emits Adds in canonical (R, Q) order with no
// duplicates, so the bytes are map-order-free by construction; the encoder
// writes the slice as-is and allocates nothing.
func encodeFrame(w *buf, d quorum.Delta, nflag uint, flags uint64) error {
	if d.Base > d.To || d.To-d.Base != uint64(len(d.Adds)) {
		return fmt.Errorf("wire: delta %v does not span exactly its adds", d)
	}
	if d.To > math.MaxUint64>>(nflag+1) {
		return fmt.Errorf("wire: delta version %d too large for its frame", d.To)
	}
	head := (d.To<<nflag | flags) << 1
	if len(d.Adds) == 0 {
		w.putUvarint(head)
		return nil
	}
	w.putUvarint(head | 1)
	w.putUvarint(uint64(len(d.Adds)))
	for _, e := range d.Adds {
		w.putUvarint(uint64(e.R))
		w.putUvarint(uint64(e.Q))
	}
	return nil
}

// decodeFrame reads a frame written by encodeFrame with nflag folded bits,
// returning the delta and those bits.
func decodeFrame(r *buf, nflag uint) (quorum.Delta, uint64, error) {
	var d quorum.Delta
	head, err := r.uvarint()
	if err != nil {
		return d, 0, err
	}
	flags := head >> 1 & (1<<nflag - 1)
	d.To = head >> (nflag + 1)
	if head&1 == 0 {
		d.Base = d.To
		return d, flags, nil
	}
	n, err := r.uvarint()
	if err != nil {
		return d, 0, err
	}
	// A frame with adds has at least one and no more than its To version;
	// every add costs at least two bytes, so a count exceeding the
	// remaining input is forged — reject before allocating (same defense
	// as graphs).
	switch {
	case n == 0:
		return d, 0, fmt.Errorf("wire: delta frame flags adds but counts none")
	case n > d.To:
		return d, 0, fmt.Errorf("wire: delta frame claims %d adds up to version %d", n, d.To)
	case n > uint64(len(r.b)-r.pos)/2:
		return d, 0, fmt.Errorf("wire: delta claims %d adds but only %d bytes remain", n, len(r.b)-r.pos)
	}
	d.Base = d.To - n
	d.Adds = make([]quorum.DeltaEntry, n)
	for i := range d.Adds {
		pr, err := r.uvarint()
		if err != nil {
			return d, 0, err
		}
		if pr >= model.MaxProcesses {
			return d, 0, fmt.Errorf("wire: delta add for process %d", pr)
		}
		q, err := r.uvarint()
		if err != nil {
			return d, 0, err
		}
		d.Adds[i] = quorum.DeltaEntry{R: model.ProcessID(pr), Q: model.ProcessSet(q)}
	}
	return d, flags, nil
}

// HistoryFrameLen returns the bytes of the history frame a LEADD or PROPD
// payload carries — the frame encodePayload writes for it, HasV folded in
// — and 0 for any other payload.
func HistoryFrameLen(pl model.Payload) (int, error) {
	var w buf
	var err error
	switch p := pl.(type) {
	case consensus.LeadDeltaPayload:
		err = encodeFrame(&w, p.Delta, 0, 0)
	case consensus.ProposalDeltaPayload:
		err = encodeFrame(&w, p.Delta, 1, flag(p.HasV))
	}
	return len(w.b), err
}

// EncodeValue serializes a failure-detector value.
func EncodeValue(v model.FDValue) ([]byte, error) {
	return AppendValue(nil, v)
}

// AppendValue appends v's encoding to dst and returns the extended slice.
func AppendValue(dst []byte, v model.FDValue) ([]byte, error) {
	w := buf{b: dst}
	if err := encodeValue(&w, v); err != nil {
		return dst, err
	}
	return w.b, nil
}

func encodeValue(w *buf, v model.FDValue) error {
	switch x := v.(type) {
	case fd.NullValue:
		w.putByte(tagValNull)
	case fd.LeaderValue:
		w.putByte(tagValLeader)
		w.putInt(int(x.Leader))
	case fd.QuorumValue:
		w.putByte(tagValQuorum)
		w.putUvarint(uint64(x.Quorum))
	case fd.SuspectsValue:
		w.putByte(tagValSuspects)
		w.putUvarint(uint64(x.Suspects))
	case fd.PairValue:
		w.putByte(tagValPair)
		if err := encodeValue(w, x.First); err != nil {
			return err
		}
		return encodeValue(w, x.Second)
	default:
		return fmt.Errorf("wire: unknown failure-detector value type %T", v)
	}
	return nil
}

// DecodeValue parses a failure-detector value.
func DecodeValue(b []byte) (model.FDValue, error) {
	r := &buf{b: b}
	v, err := decodeValue(r)
	if err != nil {
		return nil, err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", len(b)-r.pos)
	}
	return v, nil
}

func decodeValue(r *buf) (model.FDValue, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagValNull:
		return fd.NullValue{}, nil
	case tagValLeader:
		p, err := r.int()
		if err != nil {
			return nil, err
		}
		return fd.LeaderValue{Leader: model.ProcessID(p)}, nil
	case tagValQuorum:
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		return fd.QuorumValue{Quorum: model.ProcessSet(q)}, nil
	case tagValSuspects:
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		return fd.SuspectsValue{Suspects: model.ProcessSet(q)}, nil
	case tagValPair:
		first, err := decodeValue(r)
		if err != nil {
			return nil, err
		}
		second, err := decodeValue(r)
		if err != nil {
			return nil, err
		}
		return fd.PairValue{First: first, Second: second}, nil
	default:
		return nil, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// encodeGraph writes a sample DAG: node list, then per-node predecessor
// sets as packed little-endian bitset words. A_DAG edge sets are nearly
// complete (every insertion links from all known nodes), so bitsets are
// ~16× denser on the wire than index lists — the difference between
// megabytes and hundreds of megabytes of gossip in the TCP substrate.
func encodeGraph(w *buf, g *dag.Graph) error {
	w.putUvarint(uint64(g.Len()))
	for i := 0; i < g.Len(); i++ {
		n := g.Node(i)
		w.putInt(int(n.P))
		w.putInt(n.K)
		if err := encodeValue(w, n.D); err != nil {
			return err
		}
	}
	// One bitset scratch serves every node; the stack array covers graphs
	// up to 512 nodes (the common case) without touching the heap.
	var packedArr [8]uint64
	packed := packedArr[:]
	if maxWords := (g.Len() + 62) / 64; maxWords > len(packed) {
		packed = make([]uint64, maxWords)
	}
	for v := 0; v < g.Len(); v++ {
		words := (v + 63) / 64
		for i := 0; i < words; i++ {
			packed[i] = 0
		}
		for u := 0; u < v; u++ {
			if g.HasEdge(u, v) {
				packed[u/64] |= 1 << uint(u%64)
			}
		}
		for _, word := range packed[:words] {
			w.b = binary.LittleEndian.AppendUint64(w.b, word)
		}
	}
	return nil
}

func decodeGraph(r *buf) (*dag.Graph, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every node costs at least three bytes on the wire (p, k, value tag),
	// so a count exceeding the remaining input is forged — reject it before
	// allocating (found by FuzzDecodePayload).
	if n > uint64(len(r.b)-r.pos)/3 {
		return nil, fmt.Errorf("wire: graph claims %d nodes but only %d bytes remain", n, len(r.b)-r.pos)
	}
	type nodeRec struct {
		p model.ProcessID
		k int
		d model.FDValue
	}
	nodes := make([]nodeRec, n)
	for i := range nodes {
		p, err := r.int()
		if err != nil {
			return nil, err
		}
		k, err := r.int()
		if err != nil {
			return nil, err
		}
		d, err := decodeValue(r)
		if err != nil {
			return nil, err
		}
		nodes[i] = nodeRec{p: model.ProcessID(p), k: k, d: d}
	}
	// One predecessor scratch serves every node: AddSampleWithPreds copies
	// the indices into the graph's own bitset, so reusing the slice is safe
	// and replaces the per-node edge slices (the decode path's dominant
	// allocation) with a single presized buffer.
	g := dag.NewGraph()
	preds := make([]int, 0, n)
	for v := 0; v < int(n); v++ {
		preds = preds[:0]
		words := (v + 63) / 64
		for wi := 0; wi < words; wi++ {
			if r.pos+8 > len(r.b) {
				return nil, fmt.Errorf("wire: truncated graph bitset at node %d", v)
			}
			word := binary.LittleEndian.Uint64(r.b[r.pos:])
			r.pos += 8
			for ; word != 0; word &= word - 1 {
				u := wi*64 + bits.TrailingZeros64(word)
				if u >= v {
					return nil, fmt.Errorf("wire: graph edge %d→%d violates insertion order", u, v)
				}
				preds = append(preds, u)
			}
		}
		g.AddSampleWithPreds(nodes[v].p, nodes[v].d, nodes[v].k, preds)
	}
	return g, nil
}

// EncodeMessage frames a whole model message (from, to, seq, payload).
func EncodeMessage(m *model.Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// AppendMessage appends m's frame to dst and returns the extended slice.
// This is the transport hot path: netrun encodes every outgoing message
// into a pooled buffer (GetBuf) that returns to the pool after the socket
// write, so steady-state sends allocate nothing.
func AppendMessage(dst []byte, m *model.Message) ([]byte, error) {
	w := buf{b: dst}
	w.putInt(int(m.From))
	w.putInt(int(m.To))
	w.putUvarint(m.Seq)
	if err := encodeOuter(&w, m.Payload); err != nil {
		return dst, err
	}
	return w.b, nil
}

// payloadPrototypes maps each kind tag to a zero value of its payload
// type, letting PeekMessage report a frame's kind and supersession
// behavior without decoding the body. Every Kind method is a value-receiver
// constant, so calling it on the zero value is safe (SlotPayload, whose
// Kind delegates to the wrapped payload, is handled structurally).
var payloadPrototypes = map[byte]model.Payload{
	tagLead:      consensus.LeadPayload{},
	tagReport:    consensus.ReportPayload{},
	tagProposal:  consensus.ProposalPayload{},
	tagSaw:       consensus.SawPayload{},
	tagAck:       consensus.AckPayload{},
	tagRound:     transform.RoundPayload{},
	tagHeartbeat: hb.HeartbeatPayload{},
	tagGraph:     dag.GraphPayload{},
	tagProgress:  rsm.ProgressPayload{},
	tagCommand:   rsm.CommandPayload{},
	tagEstimate:  consensus.EstimatePayload{},
	tagCoord:     consensus.CoordPayload{},
	tagReply:     consensus.ReplyPayload{},
	tagDecide:    consensus.DecidePayload{},
	// Delta payloads intentionally do not implement SupersededPayload:
	// collapsing one in an inbox would break the receiver's version chain.
	tagLeadDelta:     consensus.LeadDeltaPayload{},
	tagProposalDelta: consensus.ProposalDeltaPayload{},
	// Serving-layer payloads: batch bodies must never be collapsed (each
	// carries distinct commands), and the client-protocol frames are
	// point-to-point request/response — nothing supersedes.
	tagBatch:        serve.BatchPayload{},
	tagServeRequest: serve.RequestPayload{},
	tagServeReply:   serve.ReplyPayload{},
	// The log's slot-wrapped ACK (its awareness stamp rides behind K). Like
	// the delta payloads it must never supersede: the receiver keeps the
	// smallest stamp per member, so every one has to arrive.
	tagAckStamp: rsm.AckStampPayload{},
	// A bundle reports its own kind and never supersedes, whatever it holds:
	// a PRGR inside one is taken, not collapsed.
	tagBundle: rsm.Bundle{},
}

// MessageHead is the envelope of an encoded message: everything a
// transport needs for inbox bookkeeping (routing, per-sender supersession
// collapsing) without paying for a payload decode. Deferring the decode is
// what keeps receivers ahead of DAG-snapshot floods: superseded frames are
// collapsed undecoded.
type MessageHead struct {
	From, To   model.ProcessID
	Seq        uint64
	Kind       string
	Supersedes bool
}

// PeekMessage parses only the envelope of a frame produced by
// EncodeMessage, leaving the payload body untouched.
func PeekMessage(b []byte) (MessageHead, error) {
	r := &buf{b: b}
	var h MessageHead
	from, err := r.int()
	if err != nil {
		return h, err
	}
	to, err := r.int()
	if err != nil {
		return h, err
	}
	seq, err := r.uvarint()
	if err != nil {
		return h, err
	}
	h = MessageHead{From: model.ProcessID(from), To: model.ProcessID(to), Seq: seq}
	tag, err := r.byte()
	if err != nil {
		return h, err
	}
	if tag == tagSlot {
		// SlotPayload reports its wrapped payload's kind and never
		// supersedes; skip the slot number and peek the inner tag.
		if _, err := r.slot(); err != nil {
			return h, err
		}
		if tag, err = r.byte(); err != nil {
			return h, err
		}
		proto, ok := payloadPrototypes[tag]
		if !ok {
			return h, fmt.Errorf("wire: unknown payload tag %d inside slot", tag)
		}
		h.Kind = proto.Kind()
		return h, nil
	}
	proto, ok := payloadPrototypes[tag]
	if !ok {
		return h, fmt.Errorf("wire: unknown payload tag %d", tag)
	}
	h.Kind = proto.Kind()
	_, h.Supersedes = proto.(model.SupersededPayload)
	return h, nil
}

// DecodeMessage parses a framed message.
func DecodeMessage(b []byte) (*model.Message, error) {
	m := &model.Message{}
	if err := DecodeMessageInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMessageInto parses a framed message into a caller-provided Message,
// avoiding DecodeMessage's per-frame allocation. No decoded field aliases
// the input: payloads with indirection (histories, graphs) build their own
// structures and fixed-size payloads are boxed by value, so the caller may
// recycle b (PutBuf) as soon as this returns. On error m is left partially
// written and must not be used.
func DecodeMessageInto(m *model.Message, b []byte) error {
	r := buf{b: b}
	from, err := r.int()
	if err != nil {
		return err
	}
	to, err := r.int()
	if err != nil {
		return err
	}
	seq, err := r.uvarint()
	if err != nil {
		return err
	}
	pl, err := decodeOuter(&r)
	if err != nil {
		return err
	}
	if r.pos != len(b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(b)-r.pos)
	}
	m.From, m.To, m.Seq, m.Payload = model.ProcessID(from), model.ProcessID(to), seq, pl
	return nil
}
