// Package wire defines a compact binary encoding for every message payload
// in the repository, so the algorithms can run over real byte-stream
// transports (see internal/netrun). The format is deterministic and
// self-describing at the payload level, and a peer frame is one payload and
// nothing else: the link it travels on names its From, To and Seq.
//
//	message  := outer                              (a peer frame's body: AppendMessage, Link.Append)
//	outer    := item item*                         (items run to the end; two or more are an rsm.Bundle)
//	item     := kindTag … (per-kind body) | slot   (HB and DAG only as a frame's one item)
//	slot     := head [slotnum] [Q] [K] [V] [Stamp] [frame]   (an rsm.SlotPayload or rsm.ProgressPayload, bare or bundled)
//	head     := one byte: bit 7 set (every kindTag is below 0x80), bit 5 round,
//	            bits 3–4 slot code (0 varint follows, 1 previous, 2 next, 3 zigzag delta follows),
//	            bits 0–2 and bit 6 the code (~V: V inherited, ~F: frame inherited)
//	code     :=  bits 0–2:  0         1         2             3      4     5           6     7
//	             bit 6 = 0: LEADD     PROPD     PROPD no V    REP    SAW   LEADD ~V    PRGR  PROPD ~V
//	             bit 6 = 1: LEADD ~F  PROPD ~F  PROPD no V ~F REP ~V SACK  LEADD ~V~F  —     PROPD ~V~F
//	fields   := LEADD, PROPD (K V frame) | PROPD no V (K frame) | REP (K V) | SAW (Q)
//	          | SACK (Q K Stamp−slot) | PRGR (none: the slot is its floor)
//	frame    := varint(To<<1 | hasAdds) adds
//	adds     := count (R Q)^count when hasAdds, else nothing (1 ≤ count ≤ To)
//	FLW      := followTag varint(leader)   (leader < MaxProcesses)
//	BATCH    := batchTag ID count command^count
//	command  := varint(Client<<3 | min(Op, 7)) [Op when Op ≥ 7] Seq Key Val
//	fdvalue  := valueTag … (leader | quorum | suspects | pair | null)   (at most 8 pairs deep)
//	varint   := unsigned LEB128 (encoding/binary Uvarint); signed fields zigzag
//
// A slot item writes only what its receiver cannot rebuild from the slot
// items before it: those earlier in its payload and, on a Link, those in
// the frames before it on its link. Its head's slot code says whether the
// slot varint follows, or the slot is one below that of the slot item
// before it, or one above, or a zigzag delta from it follows (written only
// where it is shorter than the varint, so a repeated slot is a delta of 0
// from slot 128 on, and "previous" at slot 0 is rejected). A window of two
// slots walks its link s, s+1, s, s+1, so in steady state each slot is
// one of the two codes. Its round bit leaves out K when K equals the last
// K written (initially 1); its code leaves out a V equal to the last V
// written by a LEADD, PROPD or REP (none before the first: a PROPD without
// V leaves it as it was), and a history frame that has no adds and the To
// of the last frame. So a slot item inherits slot, round, V and history
// frame, and in a stable run, where every LEADD, PROPD and REP carries the
// leader's proposal, V is written once per link. A SACK's stamp travels as
// a zigzag delta from its slot (the log stamps slot + window − 1), so no
// field of a slot item grows with the age of the log. A frame has no
// header: its items follow one another to its end, as k messages on one
// FIFO link taken in one step, so one item decodes as that payload and two
// or more as an rsm.Bundle. Every frame advances its link's run in send
// order; the superseding ones an inbox may drop undecoded (a heartbeat, a
// DAG snapshot) share their frame with no other item, so they leave it as
// it was. AppendPayload, DecodePayload, DecodeMessageInto and
// HistoryFrameLen code a payload as the first frame of a fresh link, so a
// bare slot item inherits only the initial round 1. A frame carries no Base: every delta spans exactly its
// adds (quorum.Delta), so the decoder rebuilds Base as To − count, and a
// frame without adds is one varint. BATCH bodies and the client request
// frame share the command encoding. Full quorum histories travel as, per
// process, a count followed by that many 64-bit process sets; DAG
// snapshots as a node list plus per-node predecessor bitsets, each node's
// failure-detector value inline. Everything round-trips exactly
// (TestRoundTrip*, TestLinkRoundTrip). A decode stops at its first error
// (truncated input, a forged count, a field out of range, a trailing byte)
// and rejects the whole input: it never panics, and a count the remaining
// input cannot hold fails before anything is allocated from it. A Link
// that fails a frame fails every later one: it cannot re-sync its run.
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

// Payload kind tags, all below headMarker.
const (
	tagLead byte = iota + 1
	tagReport
	tagProposal
	tagSaw
	tagAck
	tagRound
	tagHeartbeat
	tagGraph
	_ // unused: PRGR is slot item kind 6
	tagCommand
	tagEstimate
	tagCoord
	tagReply
	tagDecide
	tagBatch
	tagServeRequest
	tagServeReply
	_ // retired: a frame of two or more items is a bundle
	tagFollow
	tagCount
)

// A slot item's head byte: the marker, the code's low bits, the slot
// code, the round bit and the code's high bit.
const (
	headMarker = 0x80

	codeMask  = 7 // bits 0–2
	slotMask  = 3 << 3
	headRound = 1 << 5
	codeHigh  = 1 << 6

	slotExplicit = 0 << 3
	slotPrev     = 1 << 3
	slotNext     = 2 << 3
	slotDelta    = 3 << 3
)

// The seven slot item kinds: what the log sends a peer inside a slot
// (rsm's wrapShared; loopback keeps its plain LEAD, PROP and ACK at home),
// and its progress floor, which is a slot number and nothing else.
const (
	kindLead byte = iota
	kindPropV
	kindProp
	kindReport
	kindSaw
	kindAck
	kindProgress
	kindCount
)

// The fields of a slot item, in the order they travel.
const (
	fieldQ = 1 << iota
	fieldK
	fieldV
	fieldStamp
	fieldFrame
)

// kindFields is each kind's fields; kindProtos is a zero value of each
// kind's payload, whose kind and supersession PeekMessage reports.
var (
	kindFields = [kindCount]uint8{
		kindLead:   fieldK | fieldV | fieldFrame,
		kindPropV:  fieldK | fieldV | fieldFrame,
		kindProp:   fieldK | fieldFrame,
		kindReport: fieldK | fieldV,
		kindSaw:    fieldQ,
		kindAck:    fieldQ | fieldK | fieldStamp,
	}
	kindProtos = [kindCount]model.Payload{
		kindLead:     consensus.LeadDeltaPayload{},
		kindPropV:    consensus.ProposalDeltaPayload{},
		kindProp:     consensus.ProposalDeltaPayload{},
		kindReport:   consensus.ReportPayload{},
		kindSaw:      consensus.SawPayload{},
		kindAck:      rsm.AckStampPayload{},
		kindProgress: rsm.ProgressPayload{},
	}
)

// headCode is what a head's code says: the slot item's kind, and whether
// it inherits its V and its history frame.
type headCode struct {
	kind     byte
	v, frame bool
}

// codes is the grammar's code table, indexed by codeIndex; the one code
// no slot item has, PRGR's with bit 6, is kindCount. codeOf is its
// inverse.
var (
	codes = [16]headCode{
		0: {kindLead, false, false}, 8: {kindLead, false, true},
		5: {kindLead, true, false}, 13: {kindLead, true, true},
		1: {kindPropV, false, false}, 9: {kindPropV, false, true},
		7: {kindPropV, true, false}, 15: {kindPropV, true, true},
		2: {kindProp, false, false}, 10: {kindProp, false, true},
		3: {kindReport, false, false}, 11: {kindReport, true, false},
		4: {kindSaw, false, false}, 12: {kindAck, false, false},
		6: {kindProgress, false, false}, 14: {kindCount, false, false},
	}
	codeOf = func() (c [kindCount][2][2]byte) {
		for i, hc := range codes {
			if hc.kind < kindCount {
				c[hc.kind][flag(hc.v)][flag(hc.frame)] = byte(i&codeMask) | byte(i>>3)*codeHigh
			}
		}
		return c
	}()
)

// codeIndex is the index in codes of head's code: bits 0–2, and bit 6 as
// bit 3.
func codeIndex(head byte) byte { return head&codeMask | (head&codeHigh)>>3 }

// Failure-detector value tags.
const (
	tagValNull byte = iota + 1
	tagValLeader
	tagValQuorum
	tagValSuspects
	tagValPair
)

// buf is a cursor over an encode/decode buffer. A decode latches its first
// error in err: from then on every read returns zero and consumes nothing,
// so a decoder reads its fields and checks err once, at its end or before
// it acts on a decoded value.
type buf struct {
	b   []byte
	pos int
	err error
}

func (w *buf) putUvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *buf) putByte(v byte)      { w.b = append(w.b, v) }

// putInt zigzag-encodes a signed integer (proposal values may be negative).
func (w *buf) putInt(v int) { w.putUvarint(zigzag(int64(v))) }

// putInt64 zigzag-encodes a signed 64-bit value (serve command values).
func (w *buf) putInt64(x int64) { w.putUvarint(zigzag(x)) }

// zigzag maps a signed value onto the unsigned one its varint carries.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// flag is a boolean as one byte.
func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// fail latches an error unless one is latched already: the first error is
// the one the decode reports.
func (r *buf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// done returns the latched error, or an error when bytes remain after what.
func (r *buf) done(what string) error {
	if r.pos != len(r.b) {
		r.fail("wire: %d trailing bytes after %s", len(r.b)-r.pos, what)
	}
	return r.err
}

func (r *buf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("wire: truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *buf) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail("wire: truncated byte at offset %d", r.pos)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

// peek returns the next byte without consuming it: 0 at the end of the
// input or once an error is latched.
func (r *buf) peek() byte {
	if r.err != nil || r.pos >= len(r.b) {
		return 0
	}
	return r.b[r.pos]
}

// word reads a little-endian 64-bit word (a graph's predecessor bitsets).
func (r *buf) word() uint64 {
	if r.err != nil || r.pos+8 > len(r.b) {
		r.fail("wire: truncated bitset word at offset %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *buf) slot() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("wire: slot %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *buf) int() int { return int(r.int64()) }

func (r *buf) int64() int64 {
	v := r.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

// count reads the count of a list whose items take at least minBytes each,
// and rejects a count the remaining input cannot hold: a forged count
// fails here, before anything is allocated from it.
func (r *buf) count(what string, minBytes int) int {
	n := r.uvarint()
	if rem := len(r.b) - r.pos; n > uint64(rem/minBytes) {
		r.fail("wire: %s claims %d items but only %d bytes remain", what, n, rem)
		return 0
	}
	return int(n)
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
	var st run
	return st.append(dst, pl)
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
		w.putByte(flag(p.HasV))
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
	case rsm.FollowPayload:
		if p.Leader < 0 || int(p.Leader) >= model.MaxProcesses {
			return fmt.Errorf("wire: leader %d outside [0, %d)", p.Leader, model.MaxProcesses)
		}
		w.putByte(tagFollow)
		w.putUvarint(uint64(p.Leader))
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
		w.putByte(flag(p.Ok))
	case consensus.DecidePayload:
		w.putByte(tagDecide)
		w.putInt(p.V)
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
		w.putByte(flag(p.Lin))
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

func decodeCommand(r *buf) serve.Command {
	head := r.uvarint()
	if head>>3 > 0xffffffff {
		r.fail("wire: client id %d exceeds 32 bits", head>>3)
	}
	c := serve.Command{Client: uint32(head >> 3), Op: byte(head & 7)}
	if c.Op == opEscape {
		if c.Op = r.byte(); c.Op < opEscape {
			r.fail("wire: escaped op %d fits the client varint", c.Op)
		}
	}
	c.Seq, c.Key, c.Val = r.uvarint(), r.uvarint(), r.int64()
	return c
}

// DecodePayload parses a payload produced by EncodePayload.
func DecodePayload(b []byte) (model.Payload, error) {
	var st run
	return st.decode(b)
}

// decodePayload reads one payload of a kind tag. Fields are read in the
// order they travel: Go evaluates the calls of a composite literal left to
// right.
func decodePayload(r *buf) model.Payload {
	switch tag := r.byte(); tag {
	case tagLead:
		return consensus.LeadPayload{K: r.int(), V: r.int(), Hist: decodeHistories(r)}
	case tagReport:
		return consensus.ReportPayload{K: r.int(), V: r.int()}
	case tagProposal:
		return consensus.ProposalPayload{K: r.int(), V: r.int(), HasV: r.byte() == 1, Hist: decodeHistories(r)}
	case tagSaw:
		return consensus.SawPayload{Q: model.ProcessSet(r.uvarint())}
	case tagAck:
		return consensus.AckPayload{Q: model.ProcessSet(r.uvarint()), K: r.int()}
	case tagRound:
		return transform.RoundPayload{K: r.int()}
	case tagHeartbeat:
		return hb.HeartbeatPayload{}
	case tagGraph:
		return dag.GraphPayload{G: decodeGraph(r)}
	case tagFollow:
		leader := r.uvarint()
		if leader >= model.MaxProcesses {
			r.fail("wire: leader %d outside [0, %d)", leader, model.MaxProcesses)
		}
		return rsm.FollowPayload{Leader: model.ProcessID(leader)}
	case tagCommand:
		return rsm.CommandPayload{Cmd: r.int()}
	case tagEstimate:
		return consensus.EstimatePayload{R: r.int(), V: r.int(), TS: r.int()}
	case tagCoord:
		return consensus.CoordPayload{R: r.int(), V: r.int()}
	case tagReply:
		return consensus.ReplyPayload{R: r.int(), Ok: r.byte() == 1}
	case tagDecide:
		return consensus.DecidePayload{V: r.int()}
	case tagBatch:
		b := serve.BatchPayload{ID: r.int()}
		// Every command costs at least four bytes; a count exceeding the
		// remaining input is forged — reject before allocating.
		if n := r.count("batch", 4); n > 0 {
			b.Cmds = make([]serve.Command, n)
			for i := 0; i < n && r.err == nil; i++ {
				b.Cmds[i] = decodeCommand(r)
			}
		}
		return b
	case tagServeRequest:
		c := decodeCommand(r)
		return serve.RequestPayload{Client: c.Client, Seq: c.Seq, Op: c.Op, Key: c.Key, Val: c.Val, Lin: r.byte() == 1, T0: r.int64()}
	case tagServeReply:
		client := r.uvarint()
		if client > 0xffffffff {
			r.fail("wire: client id %d exceeds 32 bits", client)
		}
		return serve.ReplyPayload{Client: uint32(client), Seq: r.uvarint(), Status: r.byte(), Val: r.int64(), T0: r.int64()}
	default:
		r.fail("wire: unknown payload tag %d", tag)
		return nil
	}
}

// run is what a slot item inherits from the slot items before it: the
// last slot, the last K written (1 before any), the last V written and the
// To of the last history frame. The encoder and the decoder each keep one
// and update it alike, item by item: per payload, or per link (Link). The
// zero run is a fresh one.
type run struct {
	slot, k, v                int
	to                        uint64
	inSlot, hasK, hasV, hasTo bool
	frames                    int // encoder only: the bytes of the history frames written
}

// round is the K a slot item's round bit inherits.
func (st *run) round() int {
	if st.hasK {
		return st.k
	}
	return 1
}

// append appends pl's encoding to dst, its slot items inheriting from st,
// and advances st past them. On error it returns dst, and st may be
// advanced part of the way.
func (st *run) append(dst []byte, pl model.Payload) ([]byte, error) {
	w := buf{b: dst}
	if err := encodeOuter(&w, st, pl); err != nil {
		return dst, err
	}
	return w.b, nil
}

// decode parses b, its slot items inheriting from st, and advances st past
// them.
func (st *run) decode(b []byte) (model.Payload, error) {
	r := buf{b: b}
	pl := decodeOuter(&r, st)
	if err := r.done("payload"); err != nil {
		return nil, err
	}
	return pl, nil
}

// slotItem is a slot item's fields, flat; kindFields says which of them
// belong to its kind.
type slotItem struct {
	kind        byte
	q           model.ProcessSet
	k, v, stamp int
	delta       quorum.Delta
}

// flatten reads a slot's inner payload into it; any kind but the six has
// no encoding inside a slot.
func (it *slotItem) flatten(pl model.Payload) error {
	switch p := pl.(type) {
	case consensus.LeadDeltaPayload:
		it.kind, it.k, it.v, it.delta = kindLead, p.K, p.V, p.Delta
	case consensus.ProposalDeltaPayload:
		it.kind, it.k, it.v, it.delta = kindPropV, p.K, p.V, p.Delta
		if !p.HasV {
			if p.V != 0 {
				return fmt.Errorf("wire: %v carries V without HasV", p)
			}
			it.kind = kindProp
		}
	case consensus.ReportPayload:
		it.kind, it.k, it.v = kindReport, p.K, p.V
	case consensus.SawPayload:
		it.kind, it.q = kindSaw, p.Q
	case rsm.AckStampPayload:
		it.kind, it.q, it.k, it.stamp = kindAck, p.Q, p.K, p.Stamp
	default:
		return fmt.Errorf("wire: no slot item of kind %T", pl)
	}
	return nil
}

// payload is flatten's inverse, on slot; a PRGR is its floor alone.
func (it *slotItem) payload(slot int) model.Payload {
	var inner model.Payload
	switch it.kind {
	case kindProgress:
		return rsm.ProgressPayload{Slot: slot}
	case kindLead:
		inner = consensus.LeadDeltaPayload{K: it.k, V: it.v, Delta: it.delta}
	case kindPropV:
		inner = consensus.ProposalDeltaPayload{K: it.k, V: it.v, HasV: true, Delta: it.delta}
	case kindProp:
		inner = consensus.ProposalDeltaPayload{K: it.k, Delta: it.delta}
	case kindReport:
		inner = consensus.ReportPayload{K: it.k, V: it.v}
	case kindSaw:
		inner = consensus.SawPayload{Q: it.q}
	default:
		inner = rsm.AckStampPayload{Q: it.q, K: it.k, Stamp: it.stamp}
	}
	return rsm.SlotPayload{Slot: slot, Inner: inner}
}

// uvarintLen is the length of v's varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// putSlotItem writes it, of slot, as its head byte and the fields it does
// not inherit from st, then advances st past it.
func (st *run) putSlotItem(w *buf, slot int, it *slotItem) error {
	if slot < 0 {
		return fmt.Errorf("wire: negative slot %d", slot)
	}
	fields, d := kindFields[it.kind], &it.delta
	inheritV := fields&fieldV != 0 && st.hasV && it.v == st.v
	inheritFrame := fields&fieldFrame != 0 && st.hasTo && len(d.Adds) == 0 && d.Base == d.To && d.To == st.to
	head := headMarker | codeOf[it.kind][flag(inheritV)][flag(inheritFrame)]
	step := int64(slot) - int64(st.slot)
	switch {
	case !st.inSlot:
	case step == -1:
		head |= slotPrev
	case step == 1:
		head |= slotNext
	case uvarintLen(zigzag(step)) < uvarintLen(uint64(slot)):
		head |= slotDelta
	}
	if fields&fieldK != 0 && it.k == st.round() {
		head |= headRound
	}
	w.putByte(head)
	switch head & slotMask {
	case slotExplicit:
		w.putUvarint(uint64(slot))
	case slotDelta:
		w.putInt64(step)
	}
	if fields&fieldQ != 0 {
		w.putUvarint(uint64(it.q))
	}
	if fields&fieldK != 0 && head&headRound == 0 {
		w.putInt(it.k)
	}
	if fields&fieldV != 0 && !inheritV {
		w.putInt(it.v)
	}
	if fields&fieldStamp != 0 {
		w.putInt64(int64(it.stamp) - int64(slot)) // wraps, and so does the decoder's sum
	}
	if fields&fieldFrame != 0 && !inheritFrame {
		start := len(w.b)
		if err := encodeFrame(w, *d); err != nil {
			return err
		}
		st.frames += len(w.b) - start
	}
	st.advance(slot, it)
	return nil
}

// readSlotItem reads a slot item (its head byte not yet consumed),
// rebuilding what it inherits from st, then advances st past it.
func (st *run) readSlotItem(r *buf) model.Payload {
	head := r.byte()
	code := codes[codeIndex(head)]
	it := slotItem{kind: code.kind}
	if it.kind >= kindCount {
		r.fail("wire: no slot item has head 0x%02x", head)
		return nil
	}
	fields := kindFields[it.kind]
	slot := st.slot
	if head&slotMask != slotExplicit && !st.inSlot {
		r.fail("wire: inherited slot before any slot item")
	}
	switch head & slotMask {
	case slotExplicit:
		slot = r.slot()
	case slotPrev:
		if slot == 0 {
			r.fail("wire: previous slot before slot 0")
		}
		slot--
	case slotNext:
		if slot == math.MaxInt {
			r.fail("wire: next slot past slot %d", slot)
		}
		slot++
	case slotDelta:
		step := r.int64()
		if to := int64(slot) + step; (step > 0 && to < int64(slot)) || to < 0 || to > math.MaxInt {
			r.fail("wire: slot %d%+d out of range", slot, step)
		}
		slot += int(step)
	}
	switch {
	case head&headRound != 0 && fields&fieldK == 0:
		r.fail("wire: round bit on slot item kind %d, which has no round", it.kind)
	case code.v && !st.hasV:
		r.fail("wire: inherited value before any value")
	case code.frame && !st.hasTo:
		r.fail("wire: inherited frame before any frame")
	}
	if fields&fieldQ != 0 {
		it.q = model.ProcessSet(r.uvarint())
	}
	if fields&fieldK != 0 {
		it.k = st.round()
		if head&headRound == 0 {
			it.k = r.int()
		}
	}
	if fields&fieldV != 0 {
		it.v = st.v
		if !code.v {
			it.v = r.int()
		}
	}
	if fields&fieldStamp != 0 {
		it.stamp = int(int64(slot) + r.int64())
	}
	if fields&fieldFrame != 0 {
		it.delta = quorum.Delta{Base: st.to, To: st.to}
		if !code.frame {
			it.delta = decodeFrame(r)
		}
	}
	st.advance(slot, &it)
	return it.payload(slot)
}

// advance makes the slot item it, of slot, the one the next slot item
// inherits from.
func (st *run) advance(slot int, it *slotItem) {
	st.slot, st.inSlot = slot, true
	fields := kindFields[it.kind]
	if fields&fieldK != 0 {
		st.k, st.hasK = it.k, true
	}
	if fields&fieldV != 0 {
		st.v, st.hasV = it.v, true
	}
	if fields&fieldFrame != 0 {
		st.to, st.hasTo = it.delta.To, true
	}
}

// encodeOuter writes a payload as the whole of a frame: one item, or the
// items of a bundle one after another, with no header, since they run to
// the end of the frame. A bundle holds at least two items, none of which
// supersedes: an inbox drops a superseding frame undecoded, so it must
// carry nothing else. encodePayload rejects a bundle inside one.
func encodeOuter(w *buf, st *run, pl model.Payload) error {
	b, ok := pl.(rsm.Bundle)
	if !ok {
		return encodeItem(w, st, pl)
	}
	if len(b) < 2 {
		return fmt.Errorf("wire: bundle of %d items", len(b))
	}
	for _, pl := range b {
		if _, sup := pl.(model.SupersededPayload); sup {
			return fmt.Errorf("wire: %s shares a frame", pl.Kind())
		}
		if err := encodeItem(w, st, pl); err != nil {
			return err
		}
	}
	return nil
}

func encodeItem(w *buf, st *run, pl model.Payload) error {
	var it slotItem
	switch p := pl.(type) {
	case rsm.SlotPayload:
		if err := it.flatten(p.Inner); err != nil {
			return err
		}
		return st.putSlotItem(w, p.Slot, &it)
	case rsm.ProgressPayload:
		it.kind = kindProgress
		return st.putSlotItem(w, p.Slot, &it)
	}
	return encodePayload(w, pl)
}

// decodeOuter reads a frame as encodeOuter writes it: its first item alone
// when the frame ends there, else the bundle of its items, none of which
// supersedes.
func decodeOuter(r *buf, st *run) model.Payload {
	first := decodeItem(r, st)
	if r.pos == len(r.b) || r.err != nil {
		return first
	}
	b := append(make(rsm.Bundle, 0, 4), first)
	for r.pos < len(r.b) && r.err == nil {
		b = append(b, decodeItem(r, st))
	}
	for _, pl := range b {
		if _, sup := pl.(model.SupersededPayload); sup {
			r.fail("wire: %s shares a frame", pl.Kind())
		}
	}
	return b
}

func decodeItem(r *buf, st *run) model.Payload {
	if r.peek() >= headMarker {
		return st.readSlotItem(r)
	}
	return decodePayload(r)
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

func decodeHistories(r *buf) quorum.Histories {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	if n > model.MaxProcesses {
		r.fail("wire: histories for %d processes", n)
		return nil
	}
	h := quorum.NewHistories(int(n))
	for i := 0; i < int(n) && r.err == nil; i++ {
		// Every quorum costs at least one byte.
		cnt := r.count("quorum history", 1)
		for j := 0; j < cnt && r.err == nil; j++ {
			h.Add(model.ProcessID(i), model.ProcessSet(r.uvarint()))
		}
	}
	return h
}

// encodeFrame writes a history delta as its frame: one varint
// To<<1 | hasAdds, then the add count and the adds only when hasAdds is
// set. Base does not travel: every delta spans exactly its adds
// (quorum.Versioned, snapshots included), so the decoder rebuilds it as
// To − len(Adds), and the encoder rejects a delta that does not. The
// producer emits Adds in canonical (R, Q) order with no duplicates, so the
// bytes are map-order-free by construction; the encoder writes the slice
// as-is and allocates nothing.
func encodeFrame(w *buf, d quorum.Delta) error {
	if d.Base > d.To || d.To-d.Base != uint64(len(d.Adds)) {
		return fmt.Errorf("wire: delta %v does not span exactly its adds", d)
	}
	if d.To > math.MaxUint64>>1 {
		return fmt.Errorf("wire: delta version %d too large for its frame", d.To)
	}
	if len(d.Adds) == 0 {
		w.putUvarint(d.To << 1)
		return nil
	}
	w.putUvarint(d.To<<1 | 1)
	w.putUvarint(uint64(len(d.Adds)))
	for _, e := range d.Adds {
		w.putUvarint(uint64(e.R))
		w.putUvarint(uint64(e.Q))
	}
	return nil
}

// decodeFrame reads a frame written by encodeFrame.
func decodeFrame(r *buf) quorum.Delta {
	head := r.uvarint()
	d := quorum.Delta{Base: head >> 1, To: head >> 1}
	if head&1 == 0 {
		return d
	}
	// A frame with adds has at least one and no more than its To version;
	// every add costs at least two bytes, so a count exceeding the
	// remaining input is forged — reject before allocating (same defense
	// as graphs).
	n := r.count("delta frame", 2)
	switch {
	case n == 0:
		r.fail("wire: delta frame flags adds but counts none")
	case uint64(n) > d.To:
		r.fail("wire: delta frame claims %d adds up to version %d", n, d.To)
	}
	d.Base = d.To - uint64(n)
	d.Adds = make([]quorum.DeltaEntry, n)
	for i := 0; i < n && r.err == nil; i++ {
		pr := r.uvarint()
		if pr >= model.MaxProcesses {
			r.fail("wire: delta add for process %d", pr)
		}
		d.Adds[i] = quorum.DeltaEntry{R: model.ProcessID(pr), Q: model.ProcessSet(r.uvarint())}
	}
	return d
}

// HistoryFrameLen returns the bytes of the history frames in pl, the
// payload of one send, bare or a bundle, as they are encoded: a frame a
// slot item inherits counts 0.
func HistoryFrameLen(pl model.Payload) (int, error) {
	var st run
	w := buf{b: GetBuf(256)}
	err := encodeOuter(&w, &st, pl)
	PutBuf(w.b)
	return st.frames, err
}

// maxPairDepth bounds how deep failure-detector values nest in pairs: the
// tree's deepest is a pair of pairs. decodeValue recurses once per pair, so
// without the bound a frame of pair tags grows the decoding goroutine's
// stack by a frame per byte.
const maxPairDepth = 8

// encodeValue writes a failure-detector value inside depth pairs. Values
// travel only inside the nodes of a DAG snapshot (encodeGraph).
func encodeValue(w *buf, v model.FDValue, depth int) error {
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
		if depth == maxPairDepth {
			return fmt.Errorf("wire: failure-detector value nests deeper than %d pairs", maxPairDepth)
		}
		w.putByte(tagValPair)
		if err := encodeValue(w, x.First, depth+1); err != nil {
			return err
		}
		return encodeValue(w, x.Second, depth+1)
	default:
		return fmt.Errorf("wire: unknown failure-detector value type %T", v)
	}
	return nil
}

// decodeValue reads a failure-detector value inside depth pairs.
func decodeValue(r *buf, depth int) model.FDValue {
	switch tag := r.byte(); tag {
	case tagValNull:
		return fd.NullValue{}
	case tagValLeader:
		return fd.LeaderValue{Leader: model.ProcessID(r.int())}
	case tagValQuorum:
		return fd.QuorumValue{Quorum: model.ProcessSet(r.uvarint())}
	case tagValSuspects:
		return fd.SuspectsValue{Suspects: model.ProcessSet(r.uvarint())}
	case tagValPair:
		if depth == maxPairDepth {
			r.fail("wire: failure-detector value nests deeper than %d pairs", maxPairDepth)
			return nil
		}
		return fd.PairValue{First: decodeValue(r, depth+1), Second: decodeValue(r, depth+1)}
	default:
		r.fail("wire: unknown value tag %d", tag)
		return nil
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
		if err := encodeValue(w, n.D, 0); err != nil {
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

func decodeGraph(r *buf) *dag.Graph {
	// Every node costs at least three bytes on the wire (p, k, value tag),
	// so a count exceeding the remaining input is forged — reject it before
	// allocating (found by FuzzDecodePayload).
	n := r.count("graph", 3)
	nodes := make([]dag.Node, n)
	for i := 0; i < n && r.err == nil; i++ {
		nodes[i] = dag.Node{P: model.ProcessID(r.int()), K: r.int(), D: decodeValue(r, 0)}
	}
	// One predecessor scratch serves every node: AddSampleWithPreds copies
	// the indices into the graph's own bitset, so reusing the slice is safe
	// and replaces the per-node edge slices (the decode path's dominant
	// allocation) with a single presized buffer.
	g := dag.NewGraph()
	preds := make([]int, 0, n)
	for v := 0; v < n && r.err == nil; v++ {
		preds = preds[:0]
		for wi := 0; wi < (v+63)/64; wi++ {
			for word := r.word(); word != 0; word &= word - 1 {
				u := wi*64 + bits.TrailingZeros64(word)
				if u >= v {
					r.fail("wire: graph edge %d→%d violates insertion order", u, v)
				}
				preds = append(preds, u)
			}
		}
		// A repeated sample, like an edge out of order, is a forged graph:
		// AddSampleWithPreds panics on either, so both are checked first.
		if key := nodes[v].Key(); g.IndexOf(key) >= 0 {
			r.fail("wire: graph repeats sample %v", key)
		}
		if r.err != nil {
			return g
		}
		g.AddSampleWithPreds(nodes[v].P, nodes[v].D, nodes[v].K, preds)
	}
	return g
}

// EncodeMessage encodes m's peer frame (AppendMessage).
func EncodeMessage(m *model.Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// AppendMessage appends m's peer frame to dst and returns the extended
// slice. The frame is m.Payload's encoding and nothing else: the link it
// travels on names From, To and Seq (internal/netrun), so none of them is
// sent. It codes the frame as the first on a fresh link; netrun codes each
// frame on its link's Link, into a pooled buffer (GetBuf) that returns to
// the pool after the socket write, so steady-state sends allocate nothing.
func AppendMessage(dst []byte, m *model.Message) ([]byte, error) {
	return AppendPayload(dst, m.Payload)
}

// payloadPrototypes holds, per kind tag, a zero value of its payload
// type, letting PeekMessage report a frame's kind and supersession
// behavior without decoding the body. Every Kind method is a value-receiver
// constant, so calling it on the zero value is safe. A slot item's head
// byte has kindProtos instead.
var payloadPrototypes = [tagCount]model.Payload{
	tagLead:      consensus.LeadPayload{},
	tagReport:    consensus.ReportPayload{},
	tagProposal:  consensus.ProposalPayload{},
	tagSaw:       consensus.SawPayload{},
	tagAck:       consensus.AckPayload{},
	tagRound:     transform.RoundPayload{},
	tagHeartbeat: hb.HeartbeatPayload{},
	tagGraph:     dag.GraphPayload{},
	tagFollow:    rsm.FollowPayload{},
	tagCommand:   rsm.CommandPayload{},
	tagEstimate:  consensus.EstimatePayload{},
	tagCoord:     consensus.CoordPayload{},
	tagReply:     consensus.ReplyPayload{},
	tagDecide:    consensus.DecidePayload{},
	// Serving-layer payloads: batch bodies must never be collapsed (each
	// carries distinct commands), and the client-protocol frames are
	// point-to-point request/response — nothing supersedes.
	tagBatch:        serve.BatchPayload{},
	tagServeRequest: serve.RequestPayload{},
	tagServeReply:   serve.ReplyPayload{},
}

// tagShapes is, per kind tag, the fields of its body in the order
// decodePayload reads them, which is all skipItem needs to find where the
// item ends: i a varint, b a byte, h quorum histories, c a command and n a
// count of commands. A heartbeat has no body, and a DAG snapshot is never
// skipped: it is a frame's only item.
var tagShapes = [tagCount]string{
	tagLead:         "iih",
	tagReport:       "ii",
	tagProposal:     "iibh",
	tagSaw:          "i",
	tagAck:          "ii",
	tagRound:        "i",
	tagFollow:       "i",
	tagCommand:      "i",
	tagEstimate:     "iii",
	tagCoord:        "ii",
	tagReply:        "ib",
	tagDecide:       "i",
	tagBatch:        "in",
	tagServeRequest: "cbi",
	tagServeReply:   "iibii",
}

// prototype returns a zero value of the payload a frame starting with b
// holds, or nil for a byte no frame starts with.
func prototype(b byte) model.Payload {
	switch {
	case b >= headMarker:
		if kind := codes[codeIndex(b)].kind; kind < kindCount {
			return kindProtos[kind]
		}
	case b < tagCount:
		return payloadPrototypes[b]
	}
	return nil
}

// MessageHead is what a transport needs of a peer frame for inbox
// bookkeeping (per-sender supersession collapsing) without paying for a
// payload decode. Deferring the decode is what keeps receivers ahead of
// DAG-snapshot floods: superseded frames are collapsed undecoded. Kind is
// the kind of the payload the frame decodes to: its one item's, or BNDL.
type MessageHead struct {
	Kind       string
	Supersedes bool
}

// PeekMessage reads the kind of a peer frame produced by AppendMessage or
// Link.Append without decoding it, and allocates nothing. A frame whose
// first byte is a heartbeat's or a DAG snapshot's is that payload, which
// supersedes. Otherwise it walks the frame's first item (skipItem): the
// frame is that item when it ends there, a bundle when more follows. A
// first item the walk cannot finish reports its own kind: the frame fails
// to decode whatever it peeks as. No slot item supersedes: a slot item
// dropped from an inbox would break its link's run, a delta the receiver's
// version chain too, and a stamped ACK its smallest stamp per member; nor
// does a bundle, whatever it holds. The error names a first byte no item
// starts with.
func PeekMessage(b []byte) (h MessageHead, err error) {
	if len(b) == 0 {
		return h, fmt.Errorf("wire: empty frame")
	}
	proto := prototype(b[0])
	if proto == nil {
		return h, fmt.Errorf("wire: unknown payload tag or slot item kind 0x%02x", b[0])
	}
	if _, sup := proto.(model.SupersededPayload); sup {
		return MessageHead{Kind: proto.Kind(), Supersedes: true}, nil
	}
	r := buf{b: b}
	skipItem(&r)
	if r.err == nil && r.pos < len(b) {
		return MessageHead{Kind: rsm.Bundle{}.Kind()}, nil
	}
	return MessageHead{Kind: proto.Kind()}, nil
}

// skipItem moves r past the item at its cursor without building it: over
// the bytes decodeItem reads there when the item decodes, and never past
// the end of the input when it does not. A slot item's head names its
// fields whatever it inherits, so no run is needed.
func skipItem(r *buf) {
	tag := r.byte()
	if tag < headMarker {
		if tag < tagCount {
			skipFields(r, tagShapes[tag])
		}
		return
	}
	code := codes[codeIndex(tag)]
	if code.kind >= kindCount {
		return
	}
	fields := kindFields[code.kind]
	if sc := tag & slotMask; sc == slotExplicit || sc == slotDelta {
		r.uvarint()
	}
	if fields&fieldQ != 0 {
		r.uvarint()
	}
	if fields&fieldK != 0 && tag&headRound == 0 {
		r.uvarint()
	}
	if fields&fieldV != 0 && !code.v {
		r.uvarint()
	}
	if fields&fieldStamp != 0 {
		r.uvarint()
	}
	if fields&fieldFrame != 0 && !code.frame && r.uvarint()&1 != 0 {
		for n := 2 * r.count("delta frame", 2); n > 0 && r.err == nil; n-- {
			r.uvarint() // an add's process and quorum
		}
	}
}

// skipFields moves r past a tagged item's body of the given shape
// (tagShapes).
func skipFields(r *buf, shape string) {
	for i := 0; i < len(shape) && r.err == nil; i++ {
		switch shape[i] {
		case 'i':
			r.uvarint()
		case 'b':
			r.byte()
		case 'h':
			n := r.uvarint()
			if n > model.MaxProcesses {
				r.fail("wire: histories for %d processes", n)
			}
			for ; n > 0 && r.err == nil; n-- {
				for q := r.count("quorum history", 1); q > 0 && r.err == nil; q-- {
					r.uvarint()
				}
			}
		case 'n':
			for n := r.count("batch", 4); n > 0 && r.err == nil; n-- {
				skipFields(r, "c")
			}
		case 'c':
			if r.uvarint()&7 == opEscape {
				r.byte()
			}
			skipFields(r, "iii")
		}
	}
}

// DecodeMessageInto decodes a peer frame into m's Payload and leaves From,
// To and Seq as the caller set them: the link names those, not the frame.
// It lets the transport's hot path reuse the Message it filed the frame
// under. No decoded field aliases the input: payloads with indirection
// (histories, graphs) build their own structures and fixed-size payloads
// are boxed by value, so the caller may recycle b (PutBuf) as soon as this
// returns. On error m is left as it was. The frame is decoded as the first
// on a fresh link; Link.Decode decodes one that follows others.
func DecodeMessageInto(m *model.Message, b []byte) error {
	var l Link
	return l.Decode(m, b)
}

// Link is the codec of one direction of a link, one end of which holds
// it: the sender's appends frames and the receiver's decodes them, in the
// order the link carries them, so each frame's slot items inherit slot,
// round, V and history frame from the frames before it. A superseding frame
// (a heartbeat, a DAG snapshot) is its one item and holds no slot item, so
// the receiver's inbox may drop it undecoded without breaking the run. The zero Link is a
// fresh link. A Link is not safe for
// concurrent use.
type Link struct {
	run  run   // what the next frame inherits
	next run   // sender: run after the frame Append returned last, until Commit
	err  error // receiver: the first frame that failed to decode
}

// Append appends pl's frame on l to dst and returns the extended slice;
// on error it returns dst. The frame is not on the link until Commit: a
// frame that is never committed (it failed to encode or to send) leaves l
// as it was. Like AppendPayload, it allocates nothing when dst has room.
func (l *Link) Append(dst []byte, pl model.Payload) ([]byte, error) {
	l.next = l.run
	return l.next.append(dst, pl)
}

// Commit advances l past the frame Append returned last without error,
// once it is sent.
func (l *Link) Commit() { l.run = l.next }

// Decode decodes frame, the next frame the link carries to its receiver
// (superseded frames the inbox dropped aside), into m's Payload, as
// DecodeMessageInto does. A frame that fails to decode breaks the link's
// run for good: its error is latched, and Decode returns it for this and
// every later frame.
func (l *Link) Decode(m *model.Message, frame []byte) error {
	if l.err != nil {
		return l.err
	}
	pl, err := l.run.decode(frame)
	if err != nil {
		l.err = err
		return err
	}
	m.Payload = pl
	return nil
}
