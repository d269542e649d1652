// Command nucd hosts a replicated KV/queue service: an n-process serving
// cluster (internal/serve over the rsm log) executing on the TCP-mesh
// substrate inside one OS process, with one client listener per node
// speaking the varint-framed SREQ/SREP payload protocol of internal/wire.
//
// Each write joins its node's ingress queue; the node's replica seals what
// is queued (up to -batch commands) into one batch whenever its log has no
// batch of its own still waiting for a slot. Batches are gossiped as BATCH
// bodies, decided as batch IDs on the pipelined shared-store log, and
// applied exactly once through per-client sessions; the reply to a write
// is sent when it applies at the node that accepted it. Reads are served
// locally: plain reads from the node's machine, linearizable reads via
// read-index (snap the decided frontier, wait until applied, then read).
//
// With -ops N the daemon exits once every node has applied N distinct
// commands (pair it with cmd/nucload -ops N); with -ops 0 it runs until
// the log is full. On exit it verifies cross-node machine agreement,
// writes the metrics registry as JSONL (-metrics), and prints a summary.
//
// Observability: -trace writes the request span stream (ingress, seal,
// decide, apply, reply — see internal/obs and cmd/nuctrace) as JSONL;
// -debug-addr starts obs.ServeDebug: pprof, /metrics (Prometheus text
// exposition of the live registry), /healthz, and this daemon's /statusz
// (per-node applier progress, parked-message count, ingress depths); -slow
// logs any write whose end-to-end latency exceeds the threshold.
//
// Usage:
//
//	nucd -n 4 -ops 2000 -batch 16 -addr-file /tmp/nucd.addrs &
//	nucload -addr-file /tmp/nucd.addrs -ops 2000 -clients 8
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"nuconsensus/internal/model"
	_ "nuconsensus/internal/netrun" // register the tcp substrate
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

func main() {
	var (
		n         = flag.Int("n", 4, "number of replicas (2..64)")
		slots     = flag.Int("slots", 1<<16, "log capacity (consensus instances)")
		pipeline  = flag.Int("pipeline", 2, "slot instances in flight")
		batch     = flag.Int("batch", 16, "max commands per consensus batch")
		ops       = flag.Int("ops", 0, "exit after this many distinct commands applied everywhere (0: run to log-full)")
		seed      = flag.Int64("seed", 1, "substrate seed")
		stabilize = flag.Int64("stabilize", 60, "failure-detector stabilization time (logical ticks)")
		maxSteps  = flag.Int("maxsteps", 50_000_000, "logical step budget")
		addrFile  = flag.String("addr-file", "", "write the client listener addresses to this file (one per line)")
		metrics   = flag.String("metrics", "", "write the metrics registry as JSONL to this file at exit")
		trace     = flag.String("trace", "", "write the request span stream as JSONL to this file")
		debugAddr = flag.String("debug-addr", "", "serve pprof, /metrics, /healthz, /statusz on this address (e.g. 127.0.0.1:0)")
		slow      = flag.Duration("slow", 0, "log writes whose end-to-end latency exceeds this (0: off)")
	)
	flag.Parse()
	if *n < 2 || *n > 64 {
		log.Fatalf("nucd: need 2 <= n <= 64, got %d", *n)
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("nucd: trace file: %v", err)
		}
		// Hosts are exempt from the determinism contract, so the tracer
		// gets the wall clock; the deterministic core below emits through
		// the same tracer without ever touching the clock itself.
		tracer = obs.NewTracer(f, obs.Wall{}, reg)
	}
	pattern := model.NewFailurePattern(*n)
	cl := serve.NewCluster(serve.Config{
		N: *n, Slots: *slots, Pipeline: *pipeline, Batch: *batch,
		Target: *ops, Registry: reg, Tracer: tracer,
	})
	cl.Log().WithMetrics(reg)
	sampler := rsm.SamplerForLog(pattern, model.Time(*stabilize), *seed)
	cl.Log().WithSampler(sampler)

	// Client listeners: one per node, ephemeral loopback ports.
	listeners := make([]net.Listener, *n)
	addrs := make([]string, *n)
	for p := 0; p < *n; p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("nucd: client listener for node %d: %v", p, err)
		}
		listeners[p] = ln
		addrs[p] = ln.Addr().String()
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, addrs); err != nil {
			log.Fatalf("nucd: %v", err)
		}
	}
	for p, a := range addrs {
		fmt.Printf("listen node=%d addr=%s\n", p, a)
	}

	var conns sync.WaitGroup
	for p := 0; p < *n; p++ {
		go serveClients(listeners[p], &node{
			p: p, ap: cl.Applier(model.ProcessID(p)), in: cl.Ingress(model.ProcessID(p)),
			tracer: tracer, slow: *slow, reg: reg,
		}, &conns)
	}

	// Live telemetry listener (replaces the old NUCD_DEBUG stats ticker):
	// /metrics is the Prometheus rendering of the same registry the JSONL
	// dump snapshots, /statusz the structured liveness view that diagnosed
	// the pipelined-window wedge (every node frozen at frontier=2, cmds=0).
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg, map[string]http.HandlerFunc{
			"/statusz": statusz(cl, reg, *n, *pipeline),
		})
		if err != nil {
			log.Fatalf("nucd: %v", err)
		}
		fmt.Printf("debug addr=%s\n", ds.Addr)
		if *addrFile != "" {
			if err := writeAddrFile(*addrFile+".debug", []string{ds.Addr}); err != nil {
				log.Fatalf("nucd: %v", err)
			}
		}
	}

	sub, err := substrate.Get("tcp")
	if err != nil {
		log.Fatalf("nucd: %v", err)
	}
	start := time.Now()
	res, err := sub.Run(context.Background(), cl.Automaton(), sampler, pattern, substrate.Options{
		Seed:            *seed,
		MaxSteps:        *maxSteps,
		StopWhenDecided: true,
		Metrics:         reg,
	})
	if err != nil {
		log.Fatalf("nucd: %v", err)
	}
	elapsed := time.Since(start)

	// The halted cluster can no longer apply stalled frontier entries, so
	// unblock read-index waits (they degrade to local reads), stop new
	// accepts, and give in-flight clients a bounded grace to drain their
	// windows and hang up before the process exits under them.
	for p := 0; p < *n; p++ {
		cl.Applier(model.ProcessID(p)).Shutdown()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	drained := make(chan struct{})
	go func() { conns.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		log.Print("nucd: clients still connected after shutdown grace; exiting anyway")
	}

	// Cross-node agreement: every replica applied the same command count
	// and holds the same machine state.
	var refSum uint64
	agree := true
	var applied int64
	for p := 0; p < *n; p++ {
		st := cl.Applier(model.ProcessID(p)).StatsOf()
		sum := cl.Applier(model.ProcessID(p)).Checksum()
		fmt.Printf("node=%d applied=%d cmds=%d dups=%d batches=%d checksum=%016x\n",
			p, st.Applied, st.Commands, st.Dups, st.Batches, sum)
		if p == 0 {
			refSum, applied = sum, st.Commands
		} else if sum != refSum || st.Commands != applied {
			agree = false
		}
	}
	fmt.Printf("done decided=%v steps=%d wall=%s cmds=%d cmds/sec=%.0f bytes_sent=%d\n",
		res.Decided, res.Steps, elapsed.Round(time.Millisecond), applied,
		float64(applied)/elapsed.Seconds(), res.BytesSent)

	if err := tracer.Close(); err != nil {
		log.Fatalf("nucd: trace file: %v", err)
	}
	if tracer != nil {
		fmt.Printf("trace spans=%d file=%s\n", tracer.Spans(), *trace)
	}
	if *metrics != "" {
		if err := reg.WriteJSONLFile(*metrics); err != nil {
			log.Fatalf("nucd: %v", err)
		}
	}
	if !agree {
		log.Fatal("nucd: replica machines diverged")
	}
	if !res.Decided {
		log.Fatal("nucd: step budget exhausted before the target was reached")
	}
}

// writeAddrFile publishes the listener addresses atomically (write a temp
// file, then rename) so a polling nucload never reads a partial list.
func writeAddrFile(path string, addrs []string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// nodeStatus is one node's entry in the /statusz report.
type nodeStatus struct {
	Node       int   `json:"node"`
	Frontier   int   `json:"frontier"`
	Applied    int   `json:"applied"`
	Commands   int64 `json:"commands"`
	Dups       int64 `json:"dups"`
	Batches    int64 `json:"batches"`
	Stalled    int   `json:"stalled"`
	Sessions   int   `json:"sessions"`
	ReplyCache int   `json:"reply_cache"`
	IngressLen int   `json:"ingress_len"` // commands queued, not yet sealed into a batch
	// Aware is the last slot instance this node opened and why it was or
	// was not seeded with an already-acknowledged quorum (internal/rsm
	// aware.go): "unseeded, quorum {…} not yet acknowledged by {p2}" is a
	// slot that pays its own SAW/ACK round trip, three rounds instead of one.
	Aware string `json:"aware"`
}

// statusReport is the /statusz body.
type statusReport struct {
	Pipeline int   `json:"pipeline"`
	Parked   int64 `json:"parked"` // messages waiting for their slot to open here: parked - replayed
	// The quiet gate, cluster-wide (internal/rsm): slot instances held
	// (opened - retired; a dead replica stalls retirement, so this is what
	// grows), and how many of those are decided and asleep (enter - wake -
	// retired while quiet). Held but not quiet means still deciding, or
	// kept awake for a replica that is behind.
	LiveInstances  int64        `json:"live_instances"`
	QuietInstances int64        `json:"quiet_instances"`
	Spans          int64        `json:"spans"`
	Nodes          []nodeStatus `json:"nodes"`
}

// statusz serves the /statusz report.
func statusz(cl *serve.Cluster, reg *obs.Registry, n, pipeline int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		rep := statusReport{
			Pipeline:      pipeline,
			Parked:        reg.Counter("rsm.parked_msgs").Value() - reg.Counter("rsm.parked_replayed").Value(),
			LiveInstances: reg.Counter("rsm.instances_opened").Value() - reg.Counter("rsm.instances_retired").Value(),
			QuietInstances: reg.Counter("rsm.quiet_enter").Value() - reg.Counter("rsm.quiet_wake").Value() -
				reg.Counter("rsm.quiet_retired").Value(),
			Spans: reg.Counter("obs.spans").Value(),
		}
		for p := 0; p < n; p++ {
			st := cl.Applier(model.ProcessID(p)).StatsOf()
			rep.Nodes = append(rep.Nodes, nodeStatus{
				Node: p, Frontier: st.Frontier, Applied: st.Applied,
				Commands: st.Commands, Dups: st.Dups, Batches: st.Batches,
				Stalled: st.Stalled, Sessions: st.Sessions, ReplyCache: st.ReplyCache,
				IngressLen: cl.Ingress(model.ProcessID(p)).Len(),
				Aware:      cl.Log().AwareStatus(model.ProcessID(p)),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	}
}

// node bundles the per-node resources a client connection serves against.
type node struct {
	p      int
	ap     *serve.Applier
	in     *serve.Ingress
	tracer *obs.Tracer
	slow   time.Duration
	reg    *obs.Registry
}

// serveClients accepts client connections for one node.
func serveClients(ln net.Listener, nd *node, conns *sync.WaitGroup) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			handleConn(conn, nd)
		}()
	}
}

// handleConn speaks the framed SREQ/SREP protocol on one connection.
// Writes are acked asynchronously when they apply (RegisterWaiter), so a
// client may pipeline; replies share the connection under a write lock.
func handleConn(conn net.Conn, nd *node) {
	defer conn.Close()
	var wmu sync.Mutex
	reply := func(client uint32, seq uint64, status byte, val, t0 int64) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := wire.WritePayloadFrame(conn, serve.ReplyPayload{Client: client, Seq: seq, Status: status, Val: val, T0: t0}); err != nil {
			conn.Close() // reader sees the error and drops the conn
		}
	}
	cReqs := nd.reg.Counter("nucd.requests")
	cReads := nd.reg.Counter("nucd.reads")
	cLin := nd.reg.Counter("nucd.lin_reads")
	r := bufio.NewReader(conn)
	for {
		pl, err := wire.ReadPayloadFrame(r)
		if err != nil {
			return // closed or corrupted: drop the connection
		}
		req, ok := pl.(serve.RequestPayload)
		if !ok {
			return
		}
		cReqs.Add(1)
		switch req.Op {
		case serve.OpGet:
			cReads.Add(1)
			var v int64
			var hit bool
			if req.Lin {
				cLin.Add(1)
				v, hit = nd.ap.GetLin(req.Key)
			} else {
				v, hit = nd.ap.Get(req.Key)
			}
			status := byte(serve.StatusOK)
			if !hit {
				status = serve.StatusMissing
			}
			reply(req.Client, req.Seq, status, v, req.T0)
		default:
			// A write: trace its ingress, ack when it applies (emitting the
			// reply span and the slow-request log), then queue it for the
			// replica to seal into a batch.
			nd.tracer.Span(obs.SpanEvent{
				Stage: obs.StageIngress, P: nd.p, Client: req.Client, Seq: req.Seq,
				Slot: -1, T0: req.T0,
			})
			client, seq, t0 := req.Client, req.Seq, req.T0
			nd.ap.RegisterWaiter(client, seq, func(status byte, val int64) {
				nd.tracer.Span(obs.SpanEvent{
					Stage: obs.StageReply, P: nd.p, Client: client, Seq: seq,
					Slot: -1, N: int(status),
				})
				if nd.slow > 0 && t0 > 0 {
					if e2e := time.Duration(time.Now().UnixNano() - t0); e2e > nd.slow {
						fmt.Printf("SLOW node=%d client=%d seq=%d status=%d e2e=%s\n",
							nd.p, client, seq, status, e2e.Round(time.Microsecond))
					}
				}
				reply(client, seq, status, val, t0)
			})
			nd.in.Push([]serve.Command{{Client: req.Client, Seq: req.Seq, Op: req.Op, Key: req.Key, Val: req.Val}})
		}
	}
}
