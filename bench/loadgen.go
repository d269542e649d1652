package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// readSeqBit keeps read sequence numbers out of the write session-seq
// space, which the server requires to be contiguous per client (the
// convention cmd/nucload uses).
const readSeqBit = uint64(1) << 63

// drainTimeout bounds the wait for outstanding replies once sending
// stops; whatever is still unanswered then counts as failed.
const drainTimeout = 5 * time.Second

// op is one request the generator sent, with everything verify.go and the
// metrics need. Times are offsets from the run's epoch on the monotonic
// clock; the wall stamps are what joins an op to the server's span stream.
type op struct {
	kind     byte
	measured bool // false: warm-up, excluded from timings
	key      uint64
	val      int64 // value written, or the value a read returned
	status   byte
	replies  int
	due      time.Duration // intended send time (= sent on a closed loop)
	sent     time.Duration
	recv     time.Duration // 0 until replied
	sentWall int64
	recvWall int64
}

func (o *op) acked() bool { return o.replies > 0 }

// session is one connection: a client session with contiguous write seqs,
// one sender (the caller) and one reader goroutine.
type session struct {
	id    int // connection index; the client id on the wire is id+1
	conn  net.Conn
	epoch time.Time
	keys  *keyStream

	mu     sync.Mutex
	writes []op // index = write seq - 1
	reads  []op // index = read seq - 1
	open   int  // requests sent and not yet answered
	stray  int  // replies matching nothing outstanding
	err    error

	acks chan struct{} // one token per write reply, for the closed-loop window
	done chan struct{} // closed when the reader exits
}

// dial opens session id against node id's addr and starts its reader.
func dial(id int, addr string, seed int64, epoch time.Time) (*session, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial node %d: %w", id, err)
	}
	s := &session{
		id: id, conn: c, epoch: epoch, keys: newKeyStream(seed, id),
		// A closed loop holds at most window (<= 64) unconsumed tokens.
		acks: make(chan struct{}, 64),
		done: make(chan struct{}),
	}
	go s.readLoop()
	return s, nil
}

func (s *session) client() uint32 { return uint32(s.id + 1) }

// uniqueVal makes every written value name its write: connection in the
// high bits, write seq below. A read's value therefore identifies the
// write it observed.
func uniqueVal(conn int, seq uint64) int64 { return int64(conn+1)<<40 | int64(seq) }

func valWrite(v int64) (conn int, seq uint64) { return int(v>>40) - 1, uint64(v & (1<<40 - 1)) }

// send issues one request. due is the intended send time (pass a negative
// value on a closed loop: the op is then due when it is sent).
func (s *session) send(kind byte, key uint64, due time.Duration, measured bool) error {
	req := serve.RequestPayload{Client: s.client(), Key: key}
	s.mu.Lock()
	now := time.Now()
	o := op{kind: kind, measured: measured, key: key, sent: now.Sub(s.epoch), sentWall: now.UnixNano()}
	o.due = due
	if due < 0 {
		o.due = o.sent
	}
	if kind == kindWrite {
		req.Seq = uint64(len(s.writes) + 1)
		req.Op = serve.OpPut
		req.Val = uniqueVal(s.id, req.Seq)
		o.val = req.Val
		s.writes = append(s.writes, o)
	} else {
		req.Seq = uint64(len(s.reads)+1) | readSeqBit
		req.Op = serve.OpGet
		req.Lin = kind == kindLin
		s.reads = append(s.reads, o)
	}
	s.open++
	s.mu.Unlock()
	req.T0 = o.sentWall
	return wire.WritePayloadFrame(s.conn, req)
}

// readLoop matches replies to ops until the connection closes.
func (s *session) readLoop() {
	defer close(s.done)
	r := bufio.NewReader(s.conn)
	for {
		pl, err := wire.ReadPayloadFrame(r)
		if err != nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			return
		}
		now := time.Now()
		rep, ok := pl.(serve.ReplyPayload)
		s.mu.Lock()
		var o *op
		if ok && rep.Client == s.client() {
			if i := rep.Seq &^ readSeqBit; rep.Seq&readSeqBit != 0 && i >= 1 && i <= uint64(len(s.reads)) {
				o = &s.reads[i-1]
			} else if rep.Seq >= 1 && rep.Seq <= uint64(len(s.writes)) {
				o = &s.writes[rep.Seq-1]
			}
		}
		if o == nil {
			s.stray++
			s.mu.Unlock()
			continue
		}
		o.replies++
		first := o.replies == 1
		if first {
			o.recv, o.recvWall = now.Sub(s.epoch), now.UnixNano()
			o.status = rep.Status
			if o.kind != kindWrite {
				o.val = rep.Val
			} else if rep.Val != o.val {
				o.status = statusWrongVal
			}
			s.open--
		}
		isWrite := o.kind == kindWrite
		s.mu.Unlock()
		if first && isWrite {
			select {
			case s.acks <- struct{}{}:
			default: // open loop: nobody counts tokens
			}
		}
	}
}

// statusWrongVal marks a write whose ack carried another value than the
// one written; no server status uses it.
const statusWrongVal = 0xff

// outstanding returns how many requests still wait for a reply.
func (s *session) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open
}

// drain waits until every request is answered, the connection fails, or
// the timeout passes.
func (s *session) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for s.outstanding() > 0 && time.Now().Before(deadline) {
		select {
		case <-s.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *session) close() {
	s.conn.Close()
	<-s.done
}

// runOpen replays an open-loop schedule: each connection's sender sleeps
// until a request is due and sends it whether or not earlier ones were
// answered. Requests due before warm are warm-up.
//
// The senders sleep in nanosleep(2) on their own OS threads, not in
// time.Sleep: an otherwise idle Go process waits for its timers inside
// epoll_wait, whose timeout counts whole milliseconds, and that put a
// median 0.7 ms of generator lateness on top of 0.35 ms reads.
func runOpen(ss []*session, reqs []request, warm time.Duration) error {
	errs := make(chan error, len(ss))
	for _, s := range ss {
		go func(s *session) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for _, r := range reqs {
				if r.Conn != s.id {
					continue
				}
				if wait := r.Due - time.Since(s.epoch); wait > 0 {
					ts := syscall.NsecToTimespec(int64(wait))
					syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by the remainder
				}
				if err := s.send(r.Kind, r.Key, r.Due, r.Due >= warm); err != nil {
					errs <- fmt.Errorf("conn %d: %w", s.id, err)
					return
				}
			}
			errs <- nil
		}(s)
	}
	return collect(ss, errs)
}

// runClosed drives a closed loop of writes: each connection keeps up to
// window writes outstanding and sends the next as a reply returns. It
// stops after perConn writes per connection, or at the deadline (offset
// from the epoch) if a wedged cluster never gets that far.
func runClosed(ss []*session, window int, warm, deadline time.Duration, perConn int) error {
	errs := make(chan error, len(ss))
	for _, s := range ss {
		go func(s *session) {
			inFlight := 0
			for sent := 0; sent < perConn; sent++ {
				if inFlight == window {
					select {
					case <-s.acks:
						inFlight--
					case <-s.done:
						errs <- fmt.Errorf("conn %d closed: %v", s.id, s.err)
						return
					}
				}
				now := time.Since(s.epoch)
				if now >= deadline {
					break
				}
				if err := s.send(kindWrite, s.keys.next(), -1, now >= warm); err != nil {
					errs <- fmt.Errorf("conn %d: %w", s.id, err)
					return
				}
				inFlight++
			}
			errs <- nil
		}(s)
	}
	return collect(ss, errs)
}

// collect waits for the senders, then for the outstanding replies.
func collect(ss []*session, errs chan error) error {
	var first error
	for range ss {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	for _, s := range ss {
		s.drain(drainTimeout)
	}
	return first
}
