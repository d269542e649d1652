package main

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"time"
)

// Request kinds.
const (
	kindWrite byte = iota
	kindRead       // plain read, served from the node's machine
	kindLin        // read-index read
)

var kindNames = [...]string{"write", "read", "lin"}

// numConns is the load generator's size: one process, two connections (to
// nodes 0 and 1), one sender and one reader goroutine each. The host has
// two cores and nucd alone uses ~1.4 of them under load, so never more.
const numConns = 2

// keysPerConn is each connection's private key partition. Keys are owned
// by one session, which is what lets verify.go judge every read from that
// session's own write history.
const keysPerConn = 1024

// request is one scheduled client operation. Due is the intended send time
// from the start of the run (open loop only).
type request struct {
	Due  time.Duration
	Conn int
	Kind byte
	Key  uint64
}

// keyStream draws one connection's keys: Zipf(1.3) inside its partition,
// the skew cmd/nucload defaults to, so hot keys see both writes and reads.
type keyStream struct {
	base uint64
	zipf *rand.Zipf
}

// newKeyStream seeds connection conn's stream. The seed reaches the server
// only through the keys it generates.
func newKeyStream(seed int64, conn int) *keyStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 1))
	return &keyStream{
		base: uint64(conn) * keysPerConn,
		zipf: rand.NewZipf(rng, 1.3, 1, keysPerConn-1),
	}
}

func (k *keyStream) next() uint64 { return k.base + k.zipf.Uint64() }

// openSchedule builds an open-loop arrival schedule: writes at writeRate/s
// and reads at readRate/s (alternating pairs of plain and read-index
// reads), each class at a fixed interval with a seed-drawn phase, requests
// alternating between the two connections. Arrivals do not depend on
// replies; latency is later taken from Due. The schedule ends on a write so
// no read is sent after nucd reaches its -ops target and halts.
func openSchedule(seed int64, writeRate, readRate int, dur time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	keys := [numConns]*keyStream{}
	for c := range keys {
		keys[c] = newKeyStream(seed, c)
	}
	var out []request
	if writeRate > 0 {
		iv := time.Second / time.Duration(writeRate)
		phase := time.Duration(rng.Int63n(int64(iv)))
		for i := 0; phase+time.Duration(i)*iv < dur; i++ {
			out = append(out, request{Due: phase + time.Duration(i)*iv, Conn: i % numConns, Kind: kindWrite})
		}
	}
	if readRate > 0 {
		iv := time.Second / time.Duration(readRate)
		phase := time.Duration(rng.Int63n(int64(iv)))
		for j := 0; phase+time.Duration(j)*iv < dur; j++ {
			kind := kindRead
			if (j>>1)&1 == 1 {
				kind = kindLin
			}
			out = append(out, request{Due: phase + time.Duration(j)*iv, Conn: j % numConns, Kind: kind})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Due < out[b].Due })
	for len(out) > 0 && out[len(out)-1].Kind != kindWrite {
		out = out[:len(out)-1]
	}
	for i := range out {
		out[i].Key = keys[out[i].Conn].next()
	}
	return out
}

// countWrites returns how many writes a schedule holds: nucd's -ops.
func countWrites(reqs []request) int {
	n := 0
	for _, r := range reqs {
		if r.Kind == kindWrite {
			n++
		}
	}
	return n
}

// scheduleBytes serialises a schedule, for the determinism test.
func scheduleBytes(reqs []request) []byte {
	var b []byte
	for _, r := range reqs {
		b = binary.AppendVarint(b, int64(r.Due))
		b = append(b, byte(r.Conn), r.Kind)
		b = binary.AppendUvarint(b, r.Key)
	}
	return b
}
