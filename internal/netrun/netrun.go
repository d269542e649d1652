// Package netrun executes algorithm automata over a real TCP mesh on the
// loopback interface: one goroutine per process, one TCP connection per
// process pair, every message serialized with internal/wire as one frame
// that ends at its last item. It is the "tcp" backend of internal/substrate —
// the most system-like of the three: the algorithms' payloads, including
// whole DAG snapshots and quorum histories, actually cross a socket.
//
// As on the async substrate, processes share a logical clock (one tick per
// step taken by any process) used for crash injection and failure-detector
// queries; asynchrony comes from goroutine scheduling and TCP buffering.
// The goroutine loop, crash injection and decision collection live in the
// shared cluster driver (substrate.RunCluster); this package contributes
// only the socket transport.
//
// A connection starts with a one-byte hello naming the dialer. After it,
// each direction carries peer frames, and nothing else:
//
//	frame := item* last-item   (wire.Link.Append; two or more items: an rsm.Bundle)
//
// A frame has no length prefix: the first byte of each item says whether
// it is its frame's last, and the reader finds a frame's end by walking
// its items' fields (wire.ReadLinkFrame) without decoding them.
// No frame names its sender, receiver or sequence number: the receiving
// end knows all three. The link names From and To, and the frame's
// position on the link names Seq. Only p's goroutine writes p's end of
// its connection with q, in send order, so the k-th frame read there is
// p's k-th message to q, which substrate.RunCluster numbered
// substrate.LinkSeq(p, q, k). The reader counts and numbers it so (read).
//
// Each direction of a link is also one wire.Link codec, so a frame's slot
// items inherit slot, round, V and history frame from the frames before it
// on its link. p's end of its connection with q holds both of p's codecs:
// the one for what p sends q, advanced only once a frame is written
// (link.send; a write that fails closes the connection, so the peer never
// reads a frame behind a torn one), and the one for what p takes from q,
// which decodes in link order because the inbox keeps each sender's frames
// in order and decodes them when p takes them (resolve). Only p's
// goroutine touches either. For a model.Merger a take may get several
// frames of one peer (substrate.Inbox.TakeRun): they are resolved one by
// one in link order before the driver joins them, and what p sends a peer
// over a run of steps leaves as one frame. A superseding frame the inbox
// drops undecoded (a heartbeat, a DAG snapshot) is its frame's only item,
// so the run misses no slot item. The reader files a frame by its peek
// (wire.PeekMessage), whose first byte tells a lone payload from a
// bundle. A frame that fails to decode breaks the run of its link:
// it and every later frame from that peer are dropped, as if the link had
// closed.
package netrun

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/wire"
)

func init() { substrate.Register(S{}) }

// link is one process's end of a TCP connection with a peer: the socket
// with its write lock, and the process's codecs for the frames it sends
// the peer (enc) and takes from it (dec), which only its goroutine uses.
type link struct {
	mu       sync.Mutex
	conn     net.Conn
	enc, dec wire.Link
}

// appendFrame encodes pl on enc into buf and returns the frame, ready for
// writeFrame; enc.Commit once it is written. A message above
// wire.MaxFrameSize is an error: the peer's wire.ReadLinkFrame would refuse
// it and drop the link.
func appendFrame(buf []byte, enc *wire.Link, pl model.Payload) ([]byte, error) {
	buf, err := enc.Append(buf[:0], pl)
	if err == nil && len(buf) > wire.MaxFrameSize {
		err = fmt.Errorf("netrun: %d-byte frame exceeds the %d limit", len(buf), wire.MaxFrameSize)
	}
	return buf, err
}

// writeFrame sends one frame with one Write. A Write that fails may have
// put part of the frame on the socket, and a frame behind it would land in
// the middle of that one, so a failed write closes the link: every later
// write returns "link closed", and nothing more reaches the peer. Errors
// after the peer crashed are expected and counted by the caller.
func (l *link) writeFrame(frame []byte, sent *atomic.Int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return errors.New("netrun: link closed")
	}
	if _, err := l.conn.Write(frame); err != nil {
		l.conn.Close()
		l.conn = nil
		return err
	}
	sent.Add(int64(len(frame)))
	return nil
}

// send encodes pl on l's codec and writes it as one frame. Only a written
// frame advances the codec: a frame that failed closed the link, so the
// peer reads neither it nor any frame after it. The frame is dead once
// written, so its pooled buffer goes straight back. A payload the codec
// cannot encode is a bug in the automaton that sent it.
func (l *link) send(pl model.Payload, sent *atomic.Int64) error {
	frame, err := appendFrame(wire.GetBuf(64), &l.enc, pl)
	if err != nil {
		panic(fmt.Sprintf("netrun: unencodable payload: %v", err))
	}
	defer wire.PutBuf(frame)
	if err := l.writeFrame(frame, sent); err != nil {
		return err
	}
	l.enc.Commit()
	return nil
}

func (l *link) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// mesh holds the full-duplex connection matrix.
type mesh struct {
	links [][]*link // links[p][q]: p's connection to q (nil for p == q)
}

// dialMesh builds the loopback mesh: one listener per process, one
// connection per unordered pair (the lower id dials), a one-byte hello
// identifying the dialer.
func dialMesh(n int) (*mesh, error) {
	listeners := make([]net.Listener, n)
	for p := 0; p < n; p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("netrun: listen for p%d: %w", p, err)
		}
		listeners[p] = ln
		defer ln.Close()
	}

	m := &mesh{links: make([][]*link, n)}
	for p := range m.links {
		m.links[p] = make([]*link, n)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		lastErr error
	)
	// Acceptors: each process q accepts n−1−q connections from lower ids.
	for q := 0; q < n; q++ {
		expect := q // dialers are 0..q−1
		if expect == 0 {
			continue
		}
		wg.Add(1)
		go func(q, expect int) {
			defer wg.Done()
			for i := 0; i < expect; i++ {
				conn, err := listeners[q].Accept()
				if err == nil {
					err = m.accept(q, conn, &mu)
				}
				if err != nil {
					mu.Lock()
					lastErr = err
					mu.Unlock()
					return
				}
			}
		}(q, expect)
	}
	// Dialers.
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			conn, err := net.Dial("tcp", listeners[q].Addr().String())
			if err != nil {
				return nil, fmt.Errorf("netrun: dial p%d→p%d: %w", p, q, err)
			}
			if _, err := conn.Write([]byte{byte(p)}); err != nil {
				return nil, fmt.Errorf("netrun: hello p%d→p%d: %w", p, q, err)
			}
			mu.Lock()
			m.links[p][q] = &link{conn: conn}
			mu.Unlock()
		}
	}
	wg.Wait()
	if lastErr != nil {
		return nil, lastErr
	}
	return m, nil
}

// accept reads the hello on conn, a connection q's listener accepted, and
// files the link under the dialer it names. The byte comes from the
// dialer, so it is checked before it indexes anything: only a lower id
// dials q, and only once. mu guards the link matrix while the mesh is
// being dialed.
func (m *mesh) accept(q int, conn net.Conn, mu *sync.Mutex) error {
	var hello [1]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		conn.Close()
		return fmt.Errorf("netrun: hello to p%d: %w", q, err)
	}
	p := int(hello[0])
	mu.Lock()
	defer mu.Unlock()
	if p >= q || m.links[q][p] != nil {
		conn.Close()
		return fmt.Errorf("netrun: p%d's listener got a hello from p%d, which does not dial it", q, p)
	}
	m.links[q][p] = &link{conn: conn}
	return nil
}

// read feeds the frames arriving on c, the link on which from sends to to,
// into to's inbox until the link closes. The link names each message's
// From and To, and the count of frames read its Seq: the k-th is
// substrate.LinkSeq(from, to, k). A frame is cut at its last item
// (wire.ReadLinkFrame) and only its kind is peeked here; the body decode
// is deferred to resolve, so frames superseded while pending are dropped
// undecoded. An item of no known kind, or a frame that passes
// wire.MaxFrameSize, drops the link.
// Frames already buffered on the link are delivered as one batch under a
// single inbox lock, which flushes whenever the buffer runs dry. Frame
// buffers come from the wire pool and return to it after the deferred
// decode in resolve.
func read(c io.Reader, from, to model.ProcessID, inbox *substrate.Inbox) {
	r := bufio.NewReader(c)
	var batch []*model.Message
	flush := func() {
		if len(batch) > 0 {
			inbox.PutBatch(batch)
			batch = batch[:0]
		}
	}
	defer flush()
	for k := uint64(1); ; k++ {
		frame, err := wire.ReadLinkFrame(r)
		if err != nil {
			return // closed or crashed peer, or a corrupted stream
		}
		head, err := wire.PeekMessage(frame)
		if err != nil {
			wire.PutBuf(frame)
			return // corrupted stream: drop the link
		}
		raw := rawPayload{kind: head.Kind, frame: frame}
		msg := &model.Message{From: from, To: to, Seq: substrate.LinkSeq(from, to, k), Payload: raw}
		if head.Supersedes {
			msg.Payload = rawSupersedingPayload{raw}
		}
		batch = append(batch, msg)
		if r.Buffered() == 0 {
			flush()
		}
	}
}

// resolve decodes a raw frame at take time (ClusterHooks.Resolve) on m.To's
// codec for m.From; loopback messages (put directly, never encoded) pass
// through untouched.
func (ms *mesh) resolve(m *model.Message) *model.Message {
	if l := ms.links[m.To][m.From]; l != nil {
		return resolve(m, &l.dec)
	}
	return m
}

// resolve decodes m's raw frame on dec, the receiver's codec for the link
// it arrived on. The decode fills in the inbox message the reader built
// and recycles the frame buffer: decoded payloads never alias the frame
// (wire.Link.Decode), so the pool may hand it to another link immediately.
// Frames collapsed while pending are simply garbage collected — the inbox
// drops them without a decode, so there is no hook to return them to the
// pool. A frame that fails to decode is dropped, and so is every later one
// on its link: dec has latched the failure.
func resolve(m *model.Message, dec *wire.Link) *model.Message {
	var frame []byte
	switch p := m.Payload.(type) {
	case rawPayload:
		frame = p.frame
	case rawSupersedingPayload:
		frame = p.frame
	default:
		return m
	}
	err := dec.Decode(m, frame)
	wire.PutBuf(frame)
	if err != nil {
		return nil
	}
	return m
}

// closeAll closes every link of process p (both directions of each pair,
// so a crashed process's peers see EOF instead of a wedged mesh).
func (m *mesh) closeAll(p int) {
	for q := range m.links[p] {
		if l := m.links[p][q]; l != nil {
			l.close()
		}
		if l := m.links[q][p]; l != nil {
			l.close()
		}
	}
}

// rawPayload is a received frame whose payload body has not been decoded
// yet: the reader peeks only its kind (wire.PeekMessage) and defers the
// body decode to the moment the message is actually taken by the automaton
// (ClusterHooks.Resolve). Kind reports the encoded payload's kind so inbox
// supersession collapsing works on raw frames — superseded DAG-snapshot
// floods are discarded without ever paying their O(|G|²) decode.
type rawPayload struct {
	kind  string
	frame []byte
}

// Kind implements model.Payload.
func (p rawPayload) Kind() string { return p.kind }

// String implements model.Payload.
func (p rawPayload) String() string { return fmt.Sprintf("raw %s frame (%dB)", p.kind, len(p.frame)) }

// rawSupersedingPayload marks frames whose encoded payload supersedes
// older pending ones of its kind, so the inbox collapses them like the
// decoded payload would be.
type rawSupersedingPayload struct{ rawPayload }

// SupersedesOlder implements model.SupersededPayload.
func (rawSupersedingPayload) SupersedesOlder() {}

// S is the TCP-mesh backend: substrate name "tcp".
type S struct{}

// New returns the tcp substrate handle.
func New() substrate.Substrate { return S{} }

// Name implements substrate.Substrate.
func (S) Name() string { return "tcp" }

// Deterministic implements substrate.Substrate: socket timing makes every
// run different.
func (S) Deterministic() bool { return false }

// Run implements substrate.Substrate: it dials the loopback mesh, wires
// the socket transport into the shared concurrent cluster driver, and
// blocks until the cluster stops and every reader drains.
func (S) Run(ctx context.Context, aut model.Automaton, hist model.History, pattern *model.FailurePattern, opts substrate.Options) (*substrate.Result, error) {
	if err := substrate.Validate("netrun", aut, hist, pattern, opts); err != nil {
		return nil, err
	}
	n := aut.N()
	if n > 255 {
		return nil, errors.New("netrun: hello byte limits the mesh to 255 processes")
	}

	m, err := dialMesh(n)
	if err != nil {
		return nil, err
	}
	inboxes := substrate.NewInboxes(n)
	var (
		bytesSent atomic.Int64
		readers   sync.WaitGroup
	)

	// Readers: one goroutine per connection endpoint. links[to][from] is
	// to's end of its connection with from, so it carries from's frames.
	for to := 0; to < n; to++ {
		for from := 0; from < n; from++ {
			l := m.links[to][from]
			if l == nil {
				continue
			}
			l.mu.Lock()
			conn := l.conn
			l.mu.Unlock()
			readers.Add(1)
			go func() {
				defer readers.Done()
				read(conn, model.ProcessID(from), model.ProcessID(to), inboxes[to])
			}()
		}
	}

	// The per-frame counter is resolved once per run. A failed write is
	// rare, and its counter is registered only by the first one, so a run
	// without one dumps no frame_write_errors row.
	cFrames := opts.Metrics.Counter("netrun.frames_sent")
	dispatch := func(msgs []*model.Message) {
		for _, out := range msgs {
			if out.To == out.From {
				inboxes[out.From].Put(out) // loopback without the socket
				continue
			}
			if err := m.links[out.From][out.To].send(out.Payload, &bytesSent); err != nil {
				opts.Metrics.Counter("netrun.frame_write_errors").Add(1) // peer may have crashed
			} else {
				cFrames.Add(1)
			}
		}
	}

	res, err := substrate.RunCluster(ctx, aut, hist, pattern, opts, substrate.ClusterHooks{
		Inboxes:  inboxes,
		Dispatch: dispatch,
		Resolve:  m.resolve,
		// A halting process — crashed or merely done — closes its links so
		// peers' readers see EOF rather than a silent, wedged socket.
		OnHalt: func(p model.ProcessID) { m.closeAll(int(p)) },
	})

	// Shut the whole mesh and drain the readers before returning.
	for p := 0; p < n; p++ {
		m.closeAll(p)
	}
	readers.Wait()
	if err != nil {
		return nil, err
	}
	res.BytesSent = bytesSent.Load()
	opts.Metrics.Counter("netrun.bytes_sent").Add(res.BytesSent)
	return res, nil
}
