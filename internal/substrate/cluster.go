package substrate

// This file is the shared concurrent driver: the goroutine-per-process
// loop, crash injection, logical clock, message sequence numbering
// (LinkSeq) and decision collection of the async and TCP substrates. A
// backend provides only its transport (how a built message reaches its
// destination inbox) via ClusterHooks; the in-memory transport is the
// default, so the "async" backend at the bottom of this file is a name and
// a take probability.
//
// The wall-clock and goroutine use in here is sanctioned: this package is
// the home of the intentionally nondeterministic substrates, exempt from
// the nodeterm analyzer (see internal/lint/nodeterm). Executions are
// inherently nondeterministic; callers assert safety unconditionally and
// liveness under generous budgets.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// ClusterHooks adapts the shared concurrent driver to one transport.
type ClusterHooks struct {
	// Inboxes are the per-process mailboxes the driver drains. A transport
	// whose reader goroutines put into them brings its own; nil makes the
	// driver allocate them.
	Inboxes []*Inbox

	// TakeProb is the per-step probability of draining the inbox; <= 0 or
	// >= 1 means every step receives the oldest pending message.
	TakeProb float64

	// Dispatch transmits messages a process sends — puts them into
	// inboxes, writes them to sockets. A process hands it what it held over
	// a run of steps (RunCluster), at most one message per destination for
	// a model.Merger. The driver has already built them, the k-th message
	// p sends q numbered LinkSeq(p, q, k), and stamped the event bus's Send
	// events, so a receiver cannot take a message whose send is unstamped —
	// that ordering is what keeps the bus's Lamport annotation consistent
	// with send-before-receive even under real concurrency. A transport
	// that delivers every message of a link, in order, can name each by
	// counting instead of carrying its Seq (internal/netrun). Nil is the
	// in-memory transport: each message goes straight into its destination
	// inbox.
	Dispatch func(msgs []*model.Message)

	// OnHalt, if non-nil, runs exactly once when process p stops — by
	// crashing, by budget exhaustion or by early termination — e.g. to
	// close its sockets.
	OnHalt func(p model.ProcessID)

	// Resolve, if non-nil, finalizes a taken message before it reaches the
	// automaton — e.g. decoding a raw wire frame that the transport put in
	// the inbox undecoded. The messages of one take are resolved one by
	// one in link order. Messages collapsed in the inbox are never
	// resolved, which is the point: supersession makes their decode cost
	// vanish. A nil result (resolution failure) skips the message.
	Resolve func(m *model.Message) *model.Message
}

// seedStride separates the per-process RNG streams derived from
// Options.Seed.
const seedStride = 7919

// idleWaitBound bounds how long a process waits on its inbox after a pass
// whose take found nothing and that either stepped and sent nothing or
// skipped its λ-step because the automaton said it was idle (model.Idler).
// A step is a reaction to an arrival, so an arrival ends the wait; the
// bound exists only so that the logical clock — which ticks once per pass,
// skipped or not — and with it crash injection and the detector histories
// keep moving while every process waits, and so that an Idler is asked
// again under the next tick's detector output. The bound is a floor, not
// the wait's length: Go's timers fire at the host's timer granularity, so
// a wait that no arrival ends lasts ≈ 1 ms on a 2-vCPU Linux VM, and an
// all-idle cluster's clock runs at ≈ 1000 ticks/s per process. Wall-clock
// ticks on the concurrent substrates (ROADMAP "Time is not steps") remove
// it.
const idleWaitBound = 50 * time.Microsecond

// LinkSeq is the Seq of the k-th message (k from 1) that from sends to:
// unique in a run, and known to both ends of a FIFO link, so a transport
// can name a message by its position on the link instead of carrying the
// number.
func LinkSeq(from, to model.ProcessID, k uint64) uint64 {
	return (k*model.MaxProcesses+uint64(from))*model.MaxProcesses + uint64(to)
}

// RunCluster executes the shared concurrent loop: one goroutine per
// process, a shared logical clock (one tick per pass of any process's
// loop), crash injection from the pattern, failure-detector queries at
// the shared clock, and decision collection under one lock. A pass whose
// take found nothing skips its λ-step when the automaton is a model.Idler
// that says the step would change nothing; the skip emits no step event,
// is not counted in Result.Steps, and is counted in substrate.idle_skips.
//
// A model.Merger's process receives and sends by link runs. A take gets
// the oldest pending message and every later one from its sender up to
// the first that supersedes (Inbox.TakeRun), and the step receives them
// joined into one message (substrate.takes_merged counts the messages
// folded in). The first step of a run of steps counts the messages still
// pending, and the process holds its sends, joined per destination
// (substrate.sends_merged), until it has taken that many more: the last
// step of the run sends them, so no message waits on one that arrived
// after the run began. A take that finds nothing ends the run too. Any
// other automaton runs the same loop with runs of length one. A process
// never waits, and never leaves by crash, budget or stop, while it holds
// sends: the held messages get their Send events (obs.Bus.OnSend) and go
// out first, as the paper's channels deliver what a process sent before
// it crashed.
//
// Each process numbers its own sends per destination (LinkSeq) as they
// leave, so the Seq a message carries is what the receiving end of its
// link can count. It blocks until the cluster stops and returns the
// finished Result.
func RunCluster(ctx context.Context, aut model.Automaton, hist model.History, pattern *model.FailurePattern, opts Options, h ClusterHooks) (*Result, error) {
	n := aut.N()
	if h.Inboxes == nil {
		h.Inboxes = NewInboxes(n)
	}
	if h.Dispatch == nil {
		h.Dispatch = func(msgs []*model.Message) {
			for _, m := range msgs {
				h.Inboxes[m.To].Put(m)
			}
		}
	}
	var (
		clock    atomic.Int64
		stop     = make(chan struct{})
		stopOnce sync.Once
		wg       sync.WaitGroup

		mu      sync.Mutex
		states  = make([]model.State, n)
		decided model.ProcessSet
		res     = &Result{} // Steps counts executed steps; the clock also counts skipped λ-steps and crash and budget discoveries
	)
	// Per process, counted locally and published once at halt (no per-step
	// atomic): waits ended by an arrival, waits that ran out, λ-steps
	// skipped, messages folded into an earlier take, sends folded into a
	// held one.
	counts := make([][5]int64, n)
	idler, _ := aut.(model.Idler)
	merger, _ := aut.(model.Merger)
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	for p := 0; p < n; p++ {
		states[p] = aut.InitState(model.ProcessID(p))
	}
	correct := pattern.Correct()
	maxTicks := model.Time(opts.MaxSteps)

	// The concurrent substrates are the sanctioned home of wall-clock
	// nondeterminism: stamp the bus's events with real time here (the
	// deterministic simulator keeps the zero-stamping Logical clock).
	opts.Bus.SetClock(obs.Wall{})
	opts.Bus.OnInit(states)

	// Propagate ctx cancellation into the cluster's stop channel.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				halt()
			case <-stop:
			case <-watcherDone:
			}
		}()
	}

	for i := 0; i < n; i++ {
		p := model.ProcessID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.OnHalt != nil {
				defer h.OnHalt(p)
			}
			rng := rand.New(rand.NewSource(opts.Seed + int64(p)*seedStride))
			st := states[p] // this goroutine owns it until it halts; Step mutates it in place
			var (
				hold  held                       // sends held over the current run
				left  int                        // messages to take before hold leaves
				taken []*model.Message           // this pass's take, reused
				c     = &counts[p]               // published at halt: the goroutine is its only writer
				sent  [model.MaxProcesses]uint64 // messages sent to each process so far
			)
			defer func() { c[4] = hold.merged }()
			wait := func() {
				if h.Inboxes[p].Wait(idleWaitBound) {
					c[0]++
				} else {
					c[1]++
				}
			}
			// flush lets out what p holds outside a step: the Send events,
			// then the dispatch. Every wait and every exit goes through it.
			flush := func(t model.Time) {
				msgs := hold.release(p, &sent)
				if len(msgs) == 0 {
					return
				}
				mu.Lock()
				res.CountSends(msgs)
				opts.Bus.OnSend(t, p, msgs)
				mu.Unlock()
				h.Dispatch(msgs)
			}
			// stopCheck records st's decision and reports whether every
			// correct process has decided; the caller holds mu.
			stopCheck := func() bool {
				if !opts.StopWhenDecided {
					return false
				}
				if _, ok := model.DecisionOf(st); ok {
					decided = decided.Add(p)
				}
				all := correct.SubsetOf(decided)
				res.Stopped = res.Stopped || all
				return all
			}
			for {
				select {
				case <-stop:
					flush(model.Time(clock.Load()))
					return
				default:
				}
				t := model.Time(clock.Add(1))
				if t > maxTicks {
					flush(t)
					halt()
					return
				}
				if pattern.Crashed(p, t) {
					flush(t)
					opts.Bus.OnCrash(t, p)
					return // crash: silently halt (OnHalt closes resources)
				}
				var m *model.Message
				empty := false // a take was attempted and found nothing
				took, pending := 0, 0
				taken = taken[:0]
				if h.TakeProb <= 0 || h.TakeProb >= 1 || rng.Float64() < h.TakeProb {
					taken, pending = h.Inboxes[p].TakeRun(taken, merger != nil)
					took, empty = len(taken), len(taken) == 0
					if merger == nil {
						pending = 0 // runs of length one
					}
					taken = resolve(h.Resolve, taken)
					m = join(merger, taken)
					c[3] += int64(max(len(taken)-1, 0))
				}
				d := hist.Output(p, t)
				if empty && idler != nil && idler.Idle(p, st, d) {
					// The λ-step would be a stutter: skip it. The tick is
					// spent, and the stop check still runs, since a state's
					// decision may read more than the state (serve's does).
					c[2]++
					flush(t)
					if opts.StopWhenDecided {
						mu.Lock()
						all := stopCheck()
						mu.Unlock()
						if all {
							halt()
							return
						}
					}
					wait()
					continue
				}
				ns, sends := aut.Step(p, st, m, d)
				st = ns
				if hold.empty() {
					left = pending // a run begins: hold over the backlog found
				} else {
					left -= took
				}
				hold.add(merger, sends)
				var msgs []*model.Message
				if left <= 0 || empty {
					msgs = hold.release(p, &sent)
				}

				mu.Lock()
				res.Steps++
				res.CountSends(msgs)
				states[p] = st
				opts.Bus.OnStep(t, p, taken, d, msgs, st)
				allDecided := stopCheck()
				mu.Unlock()
				// Dispatch after the bus has the Send events: a receiver
				// cannot observe a message whose send is unstamped.
				h.Dispatch(msgs)
				if allDecided {
					flush(t)
					halt()
					return
				}
				// Nothing arrived and nothing left: the next step worth taking
				// is a reaction to the next arrival, so wait for one, at most
				// idleWaitBound. A step that skipped its take (TakeProb) never
				// waits, since messages may still be pending. A take that found
				// nothing released what was held, so no wait holds sends.
				if empty && len(msgs) == 0 {
					wait()
				}
			}
		}()
	}
	wg.Wait()
	halt()
	var drops, pending int64
	for _, b := range h.Inboxes {
		drops += b.SupersededDrops()
		pending += int64(b.Len())
	}
	var sum [5]int64
	for _, c := range counts {
		for i, v := range c {
			sum[i] += v
		}
	}
	opts.Metrics.Counter("inbox.superseded_drops").Add(drops)
	opts.Metrics.Counter("inbox.pending_at_halt").Add(pending)
	for i, name := range [...]string{"substrate.waits_woken", "substrate.waits_timed_out", "substrate.idle_skips", "substrate.takes_merged", "substrate.sends_merged"} {
		opts.Metrics.Counter(name).Add(sum[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mu.Lock()
	defer mu.Unlock()
	res.Config = &model.Configuration{States: states, Buffer: model.NewMessageBuffer()}
	res.Ticks = min(model.Time(clock.Load()), maxTicks) // each process that finds the budget spent ticks past it
	return Finish(res, pattern), nil
}

// resolve finalizes the messages of one take in link order (Resolve) and
// keeps those that resolved.
func resolve(r func(*model.Message) *model.Message, taken []*model.Message) []*model.Message {
	if r == nil {
		return taken
	}
	kept := taken[:0]
	for _, x := range taken {
		if x = r(x); x != nil {
			kept = append(kept, x)
		}
	}
	return kept
}

// join is the one message a step receives for a take: nil for none, the
// message itself for one, and for a link run the Merger's join of its
// payloads in link order, under the first message's identity.
func join(mg model.Merger, taken []*model.Message) *model.Message {
	switch len(taken) {
	case 0:
		return nil
	case 1:
		return taken[0]
	}
	pl := taken[0].Payload
	for _, x := range taken[1:] {
		pl = mg.Merge(pl, x.Payload)
	}
	first := *taken[0]
	first.Payload = pl
	return &first
}

// held is the sends a process holds over a run of steps: in order of each
// destination's first send, a Merger's sends to one destination joined
// into one unless one of them supersedes.
type held struct {
	sends  []model.Send
	last   [model.MaxProcesses]int // 1 + index in sends of the destination's joinable send; 0 when none
	merged int64                   // sends joined into a held one
}

func (h *held) empty() bool { return len(h.sends) == 0 }

// add holds sends, joining each into the destination's held send when mg
// allows it.
func (h *held) add(mg model.Merger, sends []model.Send) {
	for _, s := range sends {
		_, sup := s.Payload.(model.SupersededPayload)
		if i := h.last[s.To] - 1; mg != nil && i >= 0 && !sup {
			h.sends[i].Payload = mg.Merge(h.sends[i].Payload, s.Payload)
			h.merged++
			continue
		}
		h.sends = append(h.sends, s)
		h.last[s.To] = 0
		if !sup {
			h.last[s.To] = len(h.sends)
		}
	}
}

// release numbers what is held — the k-th message p sends q is
// LinkSeq(p, q, k), sent counting per destination — and returns it as
// messages, holding nothing after.
func (h *held) release(p model.ProcessID, sent *[model.MaxProcesses]uint64) []*model.Message {
	if len(h.sends) == 0 {
		return nil
	}
	msgs := make([]*model.Message, len(h.sends))
	for i, s := range h.sends {
		sent[s.To]++
		msgs[i] = &model.Message{From: p, To: s.To, Seq: LinkSeq(p, s.To, sent[s.To]), Payload: s.Payload}
		h.last[s.To] = 0
	}
	clear(h.sends)
	h.sends = h.sends[:0]
	return msgs
}

func init() { Register(async{}) }

// asyncTakeProb is the async substrate's per-step probability of draining
// the inbox: receiving usually-but-not-always keeps the interleavings
// adversarial. It is the one behavioural difference from the TCP transport,
// which always takes.
const asyncTakeProb = 0.8

// async is the goroutine backend over in-memory links: the cluster driver
// with its default transport.
type async struct{}

// Name implements Substrate.
func (async) Name() string { return "async" }

// Deterministic implements Substrate: goroutine scheduling makes every run
// different.
func (async) Deterministic() bool { return false }

// Run implements Substrate.
func (async) Run(ctx context.Context, aut model.Automaton, hist model.History, pattern *model.FailurePattern, opts Options) (*Result, error) {
	if err := Validate("async", aut, hist, pattern, opts); err != nil {
		return nil, err
	}
	return RunCluster(ctx, aut, hist, pattern, opts, ClusterHooks{TakeProb: asyncTakeProb})
}
