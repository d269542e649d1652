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

	// Dispatch transmits one step's messages — puts them into inboxes,
	// writes them to sockets. The driver has already built them, the k-th
	// message p sends q numbered LinkSeq(p, q, k), and stamped the event
	// bus's Send events, so a receiver cannot take a message whose send is
	// unstamped — that ordering is what keeps the bus's Lamport annotation
	// consistent with send-before-receive even under real concurrency. A
	// transport that delivers every message of a link, in order, can name
	// each by counting instead of carrying its Seq (internal/netrun). Nil
	// is the in-memory transport: each message goes straight into its
	// destination inbox.
	Dispatch func(msgs []*model.Message)

	// OnHalt, if non-nil, runs exactly once when process p stops — by
	// crashing, by budget exhaustion or by early termination — e.g. to
	// close its sockets.
	OnHalt func(p model.ProcessID)

	// Resolve, if non-nil, finalizes a taken message before it reaches the
	// automaton — e.g. decoding a raw wire frame that the transport put in
	// the inbox undecoded. Messages collapsed in the inbox are never
	// resolved, which is the point: supersession makes their decode cost
	// vanish. A nil result (resolution failure) skips the message.
	Resolve func(m *model.Message) *model.Message
}

// seedStride separates the per-process RNG streams derived from
// Options.Seed.
const seedStride = 7919

// idleWaitBound bounds how long a process waits on its inbox after a step
// that found nothing to take and sent nothing. A step is a reaction to an
// arrival, so an arrival ends the wait; the bound exists only so that the
// logical clock — which counts steps — and with it crash injection and the
// detector histories keep moving while every process waits. Wall-clock
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
// process, a shared logical clock (one tick per step taken by any
// process), crash injection from the pattern, failure-detector queries at
// the shared clock, and decision collection under one lock. Each process
// numbers its own sends per destination (LinkSeq), so the Seq a message
// carries is what the receiving end of its link can count. It blocks
// until the cluster stops and returns the finished Result.
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
		res     = &Result{} // Steps counts executed steps; the clock also counts crash and budget discoveries
	)
	waits := make([][2]int64, n) // per process: waits ended by an arrival, waits that ran out
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
			st := states[p]                     // this goroutine owns it until it halts; Step mutates it in place
			var sent [model.MaxProcesses]uint64 // messages sent to each process so far

			// Counted locally, published once at halt: no per-step atomic.
			var woken, timedOut int64
			defer func() { waits[p] = [2]int64{woken, timedOut} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t := model.Time(clock.Add(1))
				if t > maxTicks {
					halt()
					return
				}
				if pattern.Crashed(p, t) {
					opts.Bus.OnCrash(t, p)
					return // crash: silently halt (OnHalt closes resources)
				}
				var m *model.Message
				empty := false // a take was attempted and found nothing
				if h.TakeProb <= 0 || h.TakeProb >= 1 || rng.Float64() < h.TakeProb {
					m = h.Inboxes[p].Take()
					empty = m == nil
					if m != nil && h.Resolve != nil {
						m = h.Resolve(m)
					}
				}
				d := hist.Output(p, t)
				ns, sends := aut.Step(p, st, m, d)
				st = ns
				msgs := make([]*model.Message, len(sends))
				for i, s := range sends {
					sent[s.To]++
					msgs[i] = &model.Message{From: p, To: s.To, Seq: LinkSeq(p, s.To, sent[s.To]), Payload: s.Payload}
				}

				mu.Lock()
				res.Steps++
				res.CountSends(msgs)
				states[p] = st
				opts.Bus.OnStep(t, p, m, d, msgs, st)
				allDecided := false
				if opts.StopWhenDecided {
					if _, ok := model.DecisionOf(st); ok {
						decided = decided.Add(p)
					}
					allDecided = correct.SubsetOf(decided)
					res.Stopped = res.Stopped || allDecided
				}
				mu.Unlock()
				// Dispatch after the bus has the Send events: a receiver
				// cannot observe a message whose send is unstamped.
				h.Dispatch(msgs)
				if allDecided {
					halt()
					return
				}
				// Nothing arrived and nothing left: the next step worth taking
				// is a reaction to the next arrival, so wait for one, at most
				// idleWaitBound. A step that skipped its take (TakeProb) never
				// waits, since messages may still be pending.
				if empty && len(msgs) == 0 {
					if h.Inboxes[p].Wait(idleWaitBound) {
						woken++
					} else {
						timedOut++
					}
				}
			}
		}()
	}
	wg.Wait()
	halt()
	if opts.Metrics != nil {
		var drops, pending int64
		for _, b := range h.Inboxes {
			drops += b.SupersededDrops()
			pending += int64(b.Len())
		}
		var woken, timedOut int64
		for _, w := range waits {
			woken += w[0]
			timedOut += w[1]
		}
		opts.Metrics.Counter("inbox.superseded_drops").Add(drops)
		opts.Metrics.Counter("inbox.pending_at_halt").Add(pending)
		opts.Metrics.Counter("substrate.waits_woken").Add(woken)
		opts.Metrics.Counter("substrate.waits_timed_out").Add(timedOut)
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
