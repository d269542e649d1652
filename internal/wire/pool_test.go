package wire_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/wire"
)

// TestPooledFrameAliasing hammers the pooled encode → deliver → decode →
// recycle path from many concurrent links sharing the package buffer pool,
// the shape the tcp substrate runs per connection. The pooling contract
// under test (DESIGN.md §8): once DecodeMessageInto returns, the decoded
// message must not alias the frame, so the frame can be recycled — and
// immediately rewritten by another link — without the message changing
// underneath its owner.
//
// Each consumer therefore recycles the frame FIRST and verifies the
// decoded message afterwards, by re-encoding it and comparing against the
// pristine canonical frame, while the other links churn the shared pool.
// An alias into the recycled buffer surfaces as a byte mismatch here and
// as a read/write race under -race.
func TestPooledFrameAliasing(t *testing.T) {
	const (
		links = 8
		iters = 400
		kinds = 8
	)

	// Per-link canonical messages and their pristine encodings. Graph
	// payloads dominate the mix: they are the deep structures whose decode
	// must copy everything out of the frame.
	type fixture struct {
		msg  *model.Message
		want []byte
	}
	mkGraph := func(l, k int) model.Payload {
		g := dag.NewGraph()
		for i := 0; i < 8*(k%3+1); i++ {
			g.AddSample(model.ProcessID(i%4), fd.QuorumValue{Quorum: model.SetOf(model.ProcessID(l%4), model.ProcessID(i%4))}, i/4+1)
		}
		return dag.GraphPayload{G: g}
	}
	fixtures := make([][]fixture, links)
	for l := 0; l < links; l++ {
		fixtures[l] = make([]fixture, kinds)
		for k := 0; k < kinds; k++ {
			var pl model.Payload
			switch k % 3 {
			case 0:
				pl = hb.HeartbeatPayload{}
			case 1:
				pl = consensus.ReportPayload{K: l, V: k}
			default:
				pl = mkGraph(l, k)
			}
			msg := &model.Message{From: model.ProcessID(l % 4), To: model.ProcessID(k % 4), Seq: uint64(k), Payload: pl}
			want, err := wire.EncodeMessage(msg)
			if err != nil {
				t.Fatal(err)
			}
			fixtures[l][k] = fixture{msg: msg, want: want}
		}
	}

	var wg sync.WaitGroup
	for l := 0; l < links; l++ {
		ch := make(chan []byte, 4)
		wg.Add(2)
		go func(l int) { // producer: encode into pooled frames
			defer wg.Done()
			defer close(ch)
			for i := 0; i < iters; i++ {
				fx := fixtures[l][i%kinds]
				frame, err := wire.AppendMessage(wire.GetBuf(64), fx.msg)
				if err != nil {
					t.Errorf("link %d: encode: %v", l, err)
					return
				}
				ch <- frame
			}
		}(l)
		go func(l int) { // consumer: decode, recycle, then verify
			defer wg.Done()
			for frame := range ch {
				var m model.Message
				if err := wire.DecodeMessageInto(&m, frame); err != nil {
					t.Errorf("link %d: decode: %v", l, err)
					return
				}
				wire.PutBuf(frame) // recycle before verification, on purpose
				got, err := wire.AppendMessage(nil, &m)
				if err != nil {
					t.Errorf("link %d: re-encode: %v", l, err)
					return
				}
				fx := fixtures[l][int(m.Seq)%kinds]
				if !bytes.Equal(got, fx.want) {
					t.Errorf("link %d seq %d: decoded message changed after its frame was recycled (payload %T)",
						l, m.Seq, m.Payload)
					return
				}
			}
		}(l)
	}
	wg.Wait()
}

// TestPooledBufferReuse checks the pool's slice-box round trip: a put
// buffer comes back (possibly to another caller) with its capacity intact
// and zero length, and undersized pool entries are replaced rather than
// returned short.
func TestPooledBufferReuse(t *testing.T) {
	b := wire.GetBuf(16)
	if len(b) != 0 || cap(b) < 16 {
		t.Fatalf("GetBuf(16) = len %d cap %d, want len 0 cap >= 16", len(b), cap(b))
	}
	b = append(b, "0123456789abcdef"...)
	wire.PutBuf(b)
	big := wire.GetBuf(1 << 16)
	if len(big) != 0 || cap(big) < 1<<16 {
		t.Fatalf("GetBuf(64K) = len %d cap %d, want len 0 cap >= 64K", len(big), cap(big))
	}
	wire.PutBuf(big)
	// Zero-capacity puts are dropped, not stored as useless entries.
	wire.PutBuf(nil)
	if b := wire.GetBuf(8); cap(b) < 8 {
		t.Fatalf("GetBuf(8) after PutBuf(nil) = cap %d, want >= 8", cap(b))
	}
}

// TestEncodeSteadyStateAllocFree pins the codec's zero-allocation contract
// (DESIGN.md §8) at the package level, beside the root TestHotPathAllocs:
// encoding any payload kind into a reused buffer and decoding a heartbeat
// into a reused message must not allocate in steady state.
func TestEncodeSteadyStateAllocFree(t *testing.T) {
	payloads := []model.Payload{
		hb.HeartbeatPayload{},
		consensus.ReportPayload{K: 3, V: 1},
		rsm.SlotPayload{Slot: 40, Inner: rsm.AckStampPayload{Q: model.SetOf(0, 1, 2), K: 1, Stamp: 41}},
		mustGraph(t),
	}
	for _, pl := range payloads {
		pl := pl
		t.Run(fmt.Sprintf("encode-%s", pl.Kind()), func(t *testing.T) {
			msg := &model.Message{From: 1, To: 2, Seq: 7, Payload: pl}
			frame, err := wire.AppendMessage(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				frame, err = wire.AppendMessage(frame[:0], msg)
				if err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("AppendMessage(%s) steady state: %g allocs/op, want 0", pl.Kind(), allocs)
			}
		})
	}
	t.Run("decode-heartbeat", func(t *testing.T) {
		frame, err := wire.EncodeMessage(&model.Message{From: 1, To: 2, Seq: 7, Payload: hb.HeartbeatPayload{}})
		if err != nil {
			t.Fatal(err)
		}
		var m model.Message
		if allocs := testing.AllocsPerRun(100, func() {
			if err := wire.DecodeMessageInto(&m, frame); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeMessageInto(heartbeat) steady state: %g allocs/op, want 0", allocs)
		}
	})
}

func mustGraph(t *testing.T) model.Payload {
	t.Helper()
	g := dag.NewGraph()
	for i := 0; i < 32; i++ {
		g.AddSample(model.ProcessID(i%4), fd.QuorumValue{Quorum: model.SetOf(0, 1)}, i/4+1)
	}
	return dag.GraphPayload{G: g}
}
