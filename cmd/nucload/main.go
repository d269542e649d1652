// Command nucload drives client traffic against a running cmd/nucd: a
// configurable mix of writes (kv put/del, queue push/pop) and reads (plain
// or linearizable) over Zipf-skewed keys, from -clients concurrent
// sessions that round-robin across the daemon's per-node listeners.
//
// The loop is closed with a window: each session keeps up to -window
// requests outstanding and issues the next as replies return, so -window 1
// is a classic closed loop and larger windows approximate an open one.
// -ops counts WRITE commands — the number the server applies through the
// log — and must match nucd's -ops for auto-exit; reads are issued on top
// at -read-frac of total traffic (batching is a server-side knob: nucd
// -batch). Latency is tracked in microsecond histograms per class (write,
// read, linearizable read) plus overall ops/sec.
//
// Usage:
//
//	nucload -addr-file /tmp/nucd.addrs -ops 2000 -clients 8 -window 4 \
//	        -read-frac 0.3 -lin-frac 0.5 -keys 1024 -zipf 1.3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"nuconsensus/internal/obs"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// latencyBuckets frame the microsecond histograms: 50µs to 1s.
var latencyBuckets = []int64{50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000}

func main() {
	var (
		addrsFlag = flag.String("addrs", "", "comma-separated nucd client addresses")
		addrFile  = flag.String("addr-file", "", "read addresses from this file (waits for it to appear)")
		ops       = flag.Int("ops", 2000, "total write commands (match nucd -ops)")
		clients   = flag.Int("clients", 8, "concurrent client sessions")
		window    = flag.Int("window", 1, "outstanding requests per session (1: closed loop)")
		readFrac  = flag.Float64("read-frac", 0.0, "fraction of requests that are reads")
		linFrac   = flag.Float64("lin-frac", 0.5, "fraction of reads that are linearizable")
		queueFrac = flag.Float64("queue-frac", 0.25, "fraction of writes on queues (push/pop)")
		delFrac   = flag.Float64("del-frac", 0.05, "fraction of kv writes that are deletes")
		keys      = flag.Uint64("keys", 1024, "key-space size")
		zipf      = flag.Float64("zipf", 1.3, "Zipf s parameter for key skew (<=1: uniform)")
		seed      = flag.Int64("seed", 1, "workload seed")
		timeout   = flag.Duration("timeout", 2*time.Minute, "abort if the run exceeds this")
		metrics   = flag.String("metrics", "", "write the metrics registry as JSONL to this file")
		trace     = flag.String("trace", "", "write client-side span events (send/recv per write) as JSONL to this file")
	)
	flag.Parse()

	addrs, err := resolveAddrs(*addrsFlag, *addrFile, *timeout)
	if err != nil {
		log.Fatalf("nucload: %v", err)
	}
	if *clients < 1 || *ops < 1 {
		log.Fatal("nucload: need -clients >= 1 and -ops >= 1")
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("nucload: trace file: %v", err)
		}
		tracer = obs.NewTracer(f, obs.Wall{}, reg)
	}
	var wg sync.WaitGroup
	failed := make(chan error, *clients)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		writes := *ops / *clients
		if c < *ops%*clients {
			writes++
		}
		if writes == 0 {
			continue
		}
		wg.Add(1)
		go func(id int, writes int) {
			defer wg.Done()
			s := &session{
				id:      uint32(id + 1),
				addr:    addrs[id%len(addrs)],
				node:    id % len(addrs),
				tracer:  tracer,
				writes:  writes,
				window:  *window,
				rng:     rand.New(rand.NewSource(*seed + int64(id)*104729)),
				reg:     reg,
				rf:      *readFrac,
				lf:      *linFrac,
				qf:      *queueFrac,
				df:      *delFrac,
				keys:    *keys,
				zipfS:   *zipf,
				timeout: *timeout,
			}
			if err := s.run(); err != nil {
				failed <- fmt.Errorf("client %d: %w", id+1, err)
			}
		}(c, writes)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(failed)
	for err := range failed {
		log.Fatalf("nucload: %v", err)
	}

	acked := reg.Counter("load.writes_acked").Value()
	reads := reg.Counter("load.reads").Value()
	total := acked + reads
	fmt.Printf("done ops=%d writes=%d reads=%d wall=%s ops/sec=%.0f\n",
		total, acked, reads, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	for _, class := range []string{"write", "read", "lin"} {
		h := reg.Histogram("load."+class+"_us", latencyBuckets)
		if h.Count() > 0 {
			fmt.Printf("latency %-5s n=%d mean=%dµs p50=%.0fµs p99=%.0fµs\n",
				class, h.Count(), h.Sum()/h.Count(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	if err := tracer.Close(); err != nil {
		log.Fatalf("nucload: trace file: %v", err)
	}
	if *metrics != "" {
		if err := reg.WriteJSONLFile(*metrics); err != nil {
			log.Fatalf("nucload: %v", err)
		}
	}
	if acked != int64(*ops) {
		log.Fatalf("nucload: acked %d writes, want %d", acked, *ops)
	}
}

// resolveAddrs takes -addrs verbatim or polls -addr-file until nucd
// publishes it.
func resolveAddrs(addrs, file string, timeout time.Duration) ([]string, error) {
	if addrs != "" {
		return strings.Split(addrs, ","), nil
	}
	if file == "" {
		return nil, fmt.Errorf("need -addrs or -addr-file")
	}
	deadline := time.Now().Add(timeout)
	for {
		b, err := os.ReadFile(file)
		if err == nil && len(b) > 0 {
			return strings.Fields(string(b)), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("address file %s never appeared", file)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// readSeqBit separates read sequence numbers from the write session-seq
// space, which the server requires to be contiguous per client.
const readSeqBit = uint64(1) << 63

// session is one client: a connection, a contiguous write-seq counter, and
// a window of outstanding requests matched to replies by sequence number.
type session struct {
	id      uint32
	addr    string
	node    int // index of the nucd node this session targets (span P field)
	tracer  *obs.Tracer
	writes  int
	window  int
	rng     *rand.Rand
	reg     *obs.Registry
	rf, lf  float64
	qf, df  float64
	keys    uint64
	zipfS   float64
	timeout time.Duration

	conn    net.Conn
	wseq    uint64  // write seqs: 1, 2, 3, … (contiguous, exactly-once)
	rseq    uint64  // read seqs, tagged with readSeqBit
	readAcc float64 // fractional reads owed per the read/write mix
	sentAt  map[uint64]time.Time
	class   map[uint64]string
}

func (s *session) run() error {
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(s.timeout))
	s.conn = conn
	s.sentAt = make(map[uint64]time.Time, s.window)
	s.class = make(map[uint64]string, s.window)

	var zipf *rand.Zipf
	if s.zipfS > 1 && s.keys > 1 {
		zipf = rand.NewZipf(s.rng, s.zipfS, 1, s.keys-1)
	}
	key := func() uint64 {
		if zipf != nil {
			return zipf.Uint64()
		}
		return s.rng.Uint64() % s.keys
	}

	r := bufio.NewReader(conn)
	sent := 0
	for sent < s.writes || len(s.sentAt) > 0 {
		// Fill the window; reads are interleaved at the requested fraction.
		for len(s.sentAt) < s.window && sent < s.writes {
			if s.rf > 0 && s.rf < 1 {
				s.readAcc += s.rf / (1 - s.rf)
				for s.readAcc >= 1 && len(s.sentAt) < s.window {
					s.readAcc--
					if err := s.send(s.readReq(key())); err != nil {
						return err
					}
				}
				if len(s.sentAt) >= s.window {
					break
				}
			}
			if err := s.send(s.writeReq(key())); err != nil {
				return err
			}
			sent++
		}
		if len(s.sentAt) == 0 {
			break
		}
		pl, err := wire.ReadPayloadFrame(r)
		if err != nil {
			return fmt.Errorf("read reply: %w", err)
		}
		rep, ok := pl.(serve.ReplyPayload)
		if !ok {
			return fmt.Errorf("unexpected reply payload %T", pl)
		}
		t0, ok := s.sentAt[rep.Seq]
		if !ok {
			return fmt.Errorf("reply for unknown seq %d", rep.Seq)
		}
		class := s.class[rep.Seq]
		delete(s.sentAt, rep.Seq)
		delete(s.class, rep.Seq)
		if rep.Status == serve.StatusDup || rep.Status == serve.StatusRetired {
			s.reg.Counter("load.dup_acks").Add(1)
		}
		s.reg.Histogram("load."+class+"_us", latencyBuckets).Observe(time.Since(t0).Microseconds())
		if class == "write" {
			s.reg.Counter("load.writes_acked").Add(1)
			s.tracer.Span(obs.SpanEvent{
				Stage: obs.StageRecv, P: s.node, Client: s.id, Seq: rep.Seq,
				Slot: -1, N: int(rep.Status),
			})
		} else {
			s.reg.Counter("load.reads").Add(1)
		}
	}
	return nil
}

// writeReq mints the next write with a contiguous session seq.
func (s *session) writeReq(key uint64) (serve.RequestPayload, string) {
	s.wseq++
	req := serve.RequestPayload{Client: s.id, Seq: s.wseq, Key: key, Val: int64(s.rng.Int31())}
	switch {
	case s.rng.Float64() < s.qf:
		if s.rng.Intn(2) == 0 {
			req.Op = serve.OpQPush
		} else {
			req.Op = serve.OpQPop
		}
	case s.rng.Float64() < s.df:
		req.Op = serve.OpDel
	default:
		req.Op = serve.OpPut
	}
	return req, "write"
}

// readReq mints a read outside the write-seq space.
func (s *session) readReq(key uint64) (serve.RequestPayload, string) {
	s.rseq++
	req := serve.RequestPayload{Client: s.id, Seq: s.rseq | readSeqBit, Op: serve.OpGet, Key: key}
	class := "read"
	if s.rng.Float64() < s.lf {
		req.Lin = true
		class = "lin"
	}
	return req, class
}

func (s *session) send(req serve.RequestPayload, class string) error {
	now := time.Now()
	req.T0 = now.UnixNano()
	if err := wire.WritePayloadFrame(s.conn, req); err != nil {
		return err
	}
	s.sentAt[req.Seq] = now
	s.class[req.Seq] = class
	if class == "write" {
		// Stamp the span with the same nanosecond the frame carries, so the
		// client-side and server-side views of the send instant agree.
		s.tracer.Span(obs.SpanEvent{
			Stage: obs.StageSend, P: s.node, Client: s.id, Seq: req.Seq,
			Slot: -1, Wall: req.T0,
		})
	}
	return nil
}
