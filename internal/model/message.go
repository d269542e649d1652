package model

import (
	"fmt"
	"sort"
)

// Payload is the algorithm-specific content of a message. Implementations
// must be immutable once sent: messages are shared between the message
// buffer, traces and cloned configurations.
type Payload interface {
	// Kind returns a short tag naming the payload type (e.g. "LEAD").
	Kind() string
	// String renders the payload for traces.
	String() string
}

// Message is a triple (p, data, q) in the message buffer M: p has sent data
// to q and q has not yet received it (§2.1). The pair (From, Seq) makes
// every message unique, as the model requires ("each message sent by a
// process ... is unique; this can be guaranteed by having the sender include
// a counter with each message"). Seq is a counter the sender keeps, so
// that a process's k-th send has the same identity in any run in which the
// process behaves the same way — this is what lets merged runs (Lemma 2.2)
// resolve messages deterministically. The message buffer counts per
// sender; the concurrent substrates count per link
// (substrate.LinkSeq), where a FIFO link lets the receiver count too, so
// no frame carries Seq.
type Message struct {
	From    ProcessID
	To      ProcessID
	Seq     uint64 // the sender's counter: per sender, or per link (substrate.LinkSeq)
	Payload Payload

	order uint64 // buffer insertion order, for "oldest message" queries
}

// SameIdentity reports whether m and x denote the same model message.
func (m *Message) SameIdentity(x *Message) bool {
	return m == x || (m.From == x.From && m.Seq == x.Seq)
}

// String implements fmt.Stringer.
func (m *Message) String() string {
	return fmt.Sprintf("%s#%d→%s %s", m.From, m.Seq, m.To, m.Payload)
}

// SupersededPayload is implemented by payloads for which a newer message of
// the same kind from the same sender carries strictly more information —
// e.g. the monotonically growing DAG snapshots of A_DAG (Fig. 1), where
// G_p only ever grows and each message carries the whole of it. Schedulers
// may deliver the newest such pending message and discard the older ones:
// the discarded content is subsumed, so every property the algorithms
// derive from received messages is preserved while the per-link backlog
// stays bounded (each process produces n messages per step but consumes
// only one, so without collapsing the backlog — and the staleness of what
// is delivered — grows without bound).
type SupersededPayload interface {
	Payload
	// SupersedesOlder is a marker; it carries no behavior.
	SupersedesOlder()
}

// Send is a message produced by a step, before it is assigned a sequence
// number by the message buffer.
type Send struct {
	To      ProcessID
	Payload Payload
}

// Broadcast returns one Send per process in dst carrying payload. It is a
// convenience for the ubiquitous "send to all" of the paper's algorithms.
func Broadcast(dst ProcessSet, payload Payload) []Send {
	out := make([]Send, 0, dst.Len())
	dst.ForEach(func(q ProcessID) {
		out = append(out, Send{To: q, Payload: payload})
	})
	return out
}

// MessageBuffer is the multiset M of in-flight messages, organized per
// destination in arrival order so that schedulers can implement
// oldest-message-first delivery (the construction of Lemma 4.10).
type MessageBuffer struct {
	byDest    map[ProcessID][]*Message
	senderSeq map[ProcessID]uint64
	nextOrder uint64
	size      int
}

// NewMessageBuffer returns an empty message buffer (M = ∅).
func NewMessageBuffer() *MessageBuffer {
	return &MessageBuffer{
		byDest:    make(map[ProcessID][]*Message),
		senderSeq: make(map[ProcessID]uint64),
	}
}

// Put appends sends from process p to the buffer, assigning per-sender
// sequence numbers, and returns the resulting messages.
func (b *MessageBuffer) Put(from ProcessID, sends []Send) []*Message {
	if len(sends) == 0 {
		return nil
	}
	out := make([]*Message, 0, len(sends))
	for _, s := range sends {
		m := &Message{
			From:    from,
			To:      s.To,
			Seq:     b.senderSeq[from],
			Payload: s.Payload,
			order:   b.nextOrder,
		}
		b.senderSeq[from]++
		b.nextOrder++
		b.byDest[s.To] = append(b.byDest[s.To], m)
		b.size++
		out = append(out, m)
	}
	return out
}

// Pending returns the in-flight messages addressed to q, oldest first. The
// returned slice is owned by the buffer and must not be mutated.
func (b *MessageBuffer) Pending(q ProcessID) []*Message { return b.byDest[q] }

// Oldest returns the oldest in-flight message addressed to q, or nil.
func (b *MessageBuffer) Oldest(q ProcessID) *Message {
	ms := b.byDest[q]
	if len(ms) == 0 {
		return nil
	}
	return ms[0]
}

// OldestFrom returns the oldest in-flight message addressed to q that was
// sent by from, or nil. Together with Oldest it gives schedulers per-link
// FIFO delivery: the substrates (substrate.Inbox, netrun readers) already
// deliver each link in send order, and the explorer (internal/explore)
// enumerates delivery choices per link so that commuted deliveries on
// distinct links reach identical configurations.
func (b *MessageBuffer) OldestFrom(q, from ProcessID) *Message {
	for _, m := range b.byDest[q] {
		if m.From == from {
			return m
		}
	}
	return nil
}

// Contains reports whether a message with m's identity is in the buffer.
func (b *MessageBuffer) Contains(m *Message) bool {
	for _, x := range b.byDest[m.To] {
		if x.SameIdentity(m) {
			return true
		}
	}
	return false
}

// Take removes the message with m's identity from the buffer and returns
// the buffer's instance, or nil if absent.
func (b *MessageBuffer) Take(m *Message) *Message {
	ms := b.byDest[m.To]
	for i, x := range ms {
		if x.SameIdentity(m) {
			b.byDest[m.To] = append(ms[:i:i], ms[i+1:]...)
			b.size--
			return x
		}
	}
	return nil
}

// Collapse returns the newest pending message to q from sender 'from' with
// the given payload kind, removing every older pending message to q from
// that sender and kind. It returns nil if there is none. Use only for
// payloads implementing SupersededPayload.
func (b *MessageBuffer) Collapse(to, from ProcessID, kind string) *Message {
	ms := b.byDest[to]
	var newest *Message
	for _, m := range ms {
		if m.From == from && m.Payload.Kind() == kind {
			if newest == nil || m.order > newest.order {
				newest = m
			}
		}
	}
	if newest == nil {
		return nil
	}
	kept := ms[:0]
	for _, m := range ms {
		if m != newest && m.From == from && m.Payload.Kind() == kind {
			b.size--
			continue
		}
		kept = append(kept, m)
	}
	b.byDest[to] = kept
	return newest
}

// Len returns |M|.
func (b *MessageBuffer) Len() int { return b.size }

// Clone returns a deep copy of the buffer. Messages themselves are shared:
// they are immutable once sent.
func (b *MessageBuffer) Clone() *MessageBuffer {
	nb := &MessageBuffer{
		byDest:    make(map[ProcessID][]*Message, len(b.byDest)),
		senderSeq: make(map[ProcessID]uint64, len(b.senderSeq)),
		nextOrder: b.nextOrder,
		size:      b.size,
	}
	for q, ms := range b.byDest {
		cp := make([]*Message, len(ms))
		copy(cp, ms)
		nb.byDest[q] = cp
	}
	for p, s := range b.senderSeq {
		nb.senderSeq[p] = s
	}
	return nb
}

// All returns every in-flight message in arrival order.
func (b *MessageBuffer) All() []*Message {
	out := make([]*Message, 0, b.size)
	for _, ms := range b.byDest {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].order < out[j].order })
	return out
}
