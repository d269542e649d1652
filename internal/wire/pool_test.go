package wire_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
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
// A frame names no message, so, like a netrun reader, the consumer tells
// which fixture a frame encodes by its position on the link.
// PutBuf poisons the frame as it takes it back, so an alias into the
// recycled buffer surfaces as a byte mismatch on every run, and as a
// read/write race under -race.
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
			i := 0
			for frame := range ch {
				fx := fixtures[l][i%kinds]
				i++
				m := model.Message{From: fx.msg.From, To: fx.msg.To, Seq: fx.msg.Seq}
				if err := wire.DecodeMessageInto(&m, frame); err != nil {
					t.Errorf("link %d: decode: %v", l, err)
					continue
				}
				wire.PutBuf(frame) // recycle before verification, on purpose
				got, err := wire.AppendMessage(nil, &m)
				if err != nil {
					t.Errorf("link %d: re-encode: %v", l, err)
					continue
				}
				if !bytes.Equal(got, fx.want) {
					t.Errorf("link %d frame %d: decoded message changed after its frame was recycled (payload %T)",
						l, i, m.Payload)
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
	// Zero-capacity puts are dropped, not stored as useless entries, and
	// are not poisoned: there is no byte to write.
	wire.PutBuf(nil)
	wire.PutBuf([]byte{})
	if b := wire.GetBuf(8); cap(b) < 8 {
		t.Fatalf("GetBuf(8) after zero-capacity puts = cap %d, want >= 8", cap(b))
	}
}

// TestPutBufPoisons pins the use-after-put check: PutBuf overwrites the
// whole capacity of a returned buffer with the poison byte 0xEE, so a
// caller that still reads its stale slice sees the pattern, not its data.
func TestPutBufPoisons(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 255, 1 << 16} {
		b := wire.GetBuf(n)[:n]
		for i := range b {
			b[i] = byte(i)
		}
		stale := b[:cap(b)]
		wire.PutBuf(b[:n/2]) // the put covers cap(b), not len(b)
		for i, c := range stale {
			if c != 0xEE {
				t.Fatalf("n=%d: stale byte %d = %#x after PutBuf, want the poison 0xee", n, i, c)
			}
		}
	}
}

// TestOnePool keeps the module to one sync.Pool, wire's byte-buffer pool
// behind GetBuf/PutBuf, so what a pool may hold is fixed by that API's
// type. It scans every non-test Go file outside bench/ (the benchmark's
// own module) and testdata/.
func TestOnePool(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	allowed := filepath.Join(root, "internal", "wire", "pool.go")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == allowed {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte("sync.Pool")) {
			rel, _ := filepath.Rel(root, path)
			t.Errorf("%s uses sync.Pool: the module's one pool is wire's byte-buffer pool (GetBuf/PutBuf)", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
