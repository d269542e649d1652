package netrun

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

// FuzzReadLink feeds arbitrary bytes to a reader as one link's stream, p2
// → p1. The reader never panics, and it names the k-th frame it accepts
// p2's k-th message to p1, numbered substrate.LinkSeq(2, 1, k): the inbox
// holds exactly the frames up to the first bad one, less those a later
// superseding frame of the same kind collapsed, in order. Resolving what
// it holds through one receiving codec never panics or renames a message
// either, and once a frame fails to resolve, every later one fails.
func FuzzReadLink(f *testing.F) {
	const from, to = 2, 1
	var (
		stream []byte
		enc    wire.Link
	)
	for _, pl := range []model.Payload{
		rsm.ProgressPayload{Slot: 3},
		rsm.CommandPayload{Cmd: 9},
		rsm.Bundle{
			rsm.SlotPayload{Slot: 3, Inner: consensus.ReportPayload{K: 1, V: 9}},
			rsm.SlotPayload{Slot: 3, Inner: consensus.SawPayload{Q: model.SetOf(0, 1)}},
		},
		rsm.ProgressPayload{Slot: 4},
		rsm.SlotPayload{Slot: 5, Inner: consensus.ReportPayload{K: 2, V: 1}},
	} {
		b, err := enc.Append(nil, pl)
		if err != nil {
			f.Fatal(err)
		}
		enc.Commit()
		stream = append(binary.AppendUvarint(stream, uint64(len(b))), b...)
		f.Add(bytes.Clone(stream))
	}
	f.Add(append(bytes.Clone(stream), 1, 0x7F)) // a frame of an unknown tag
	f.Add(append(bytes.Clone(stream), 0))       // an empty frame
	f.Add(stream[:len(stream)-1])               // cut short
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frames the reader should accept, as it reads them.
		type frame struct {
			k    uint64
			head wire.MessageHead
		}
		var accepted []frame
		r := bufio.NewReader(bytes.NewReader(data))
		for k := uint64(1); ; k++ {
			b, err := wire.ReadFrame(r)
			if err != nil {
				break
			}
			head, err := wire.PeekMessage(b)
			wire.PutBuf(b)
			if err != nil {
				break
			}
			accepted = append(accepted, frame{k, head})
		}
		// What the inbox keeps: a frame no later superseding frame of its
		// kind collapsed.
		var want []uint64
		for i, fr := range accepted {
			kept := true
			for _, later := range accepted[i+1:] {
				if later.head.Supersedes && later.head.Kind == fr.head.Kind {
					kept = false
				}
			}
			if kept {
				want = append(want, substrate.LinkSeq(from, to, fr.k))
			}
		}

		inbox := substrate.NewInboxes(3)[to]
		read(bytes.NewReader(data), from, to, inbox)
		var dec wire.Link
		failed := false
		for i := 0; ; i++ {
			m := inbox.Take()
			if m == nil {
				if i != len(want) {
					t.Fatalf("the inbox held %d messages, want %d", i, len(want))
				}
				return
			}
			if i >= len(want) || m.From != from || m.To != to || m.Seq != want[i] {
				t.Fatalf("message %d is %v#%d→%v, want Seqs %v on p%d → p%d", i, m.From, m.Seq, m.To, want, from, to)
			}
			seq := m.Seq
			switch m = resolve(m, &dec); {
			case m == nil:
				failed = true
			case failed:
				t.Fatalf("message %d resolved as %v after a message failed to", i, m)
			case m.From != from || m.To != to || m.Seq != seq:
				t.Fatalf("resolve renamed message %d to %v#%d→%v", i, m.From, m.Seq, m.To)
			}
		}
	})
}
