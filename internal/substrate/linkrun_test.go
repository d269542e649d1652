package substrate_test

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/substrate"
)

// tag is a payload that names itself; newest is one that supersedes older
// pending payloads of its kind from its sender, and old is of that kind
// but supersedes nothing; tags is what linkAut's Merge makes of several,
// in link order.
type (
	tag    string
	newest string
	old    string
	tags   []string
)

func (tag) Kind() string        { return "TAG" }
func (t tag) String() string    { return string(t) }
func (newest) Kind() string     { return "NEW" }
func (t newest) String() string { return string(t) }
func (newest) SupersedesOlder() {}
func (old) Kind() string        { return "NEW" }
func (t old) String() string    { return string(t) }
func (tags) Kind() string       { return "TAGS" }
func (t tags) String() string   { return strings.Join(t, "+") }

// names is the tags a payload carries, in order.
func names(pl model.Payload) []string {
	switch pl := pl.(type) {
	case tags:
		return pl
	case newest:
		return []string{string(pl)}
	case old:
		return []string{string(pl)}
	}
	return []string{string(pl.(tag))}
}

// linkAut records what each process takes, one entry per step that
// received something. A process that receives "go" answers p0 "reply"; p0
// decides once it has taken want tags, everyone else at once. Every
// λ-step is a stutter, and Idle says so. The hooks, when set, run inside
// Step and Idle.
type linkAut struct {
	n      int
	want   int
	onStep func(p model.ProcessID, got []string)
	onIdle func(p model.ProcessID)
}

type linkState struct {
	p     model.ProcessID
	want  int
	takes [][]string // one entry per receipt: the tags it carried
	items int
}

func (s *linkState) CloneState() model.State { c := *s; return &c }
func (s *linkState) Decision() (int, bool)   { return 0, s.p != 0 || s.items >= s.want }

func (a linkAut) Name() string { return "link" }
func (a linkAut) N() int       { return a.n }
func (a linkAut) InitState(p model.ProcessID) model.State {
	return &linkState{p: p, want: a.want}
}
func (a linkAut) Step(p model.ProcessID, s model.State, m *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*linkState)
	if m == nil {
		return st, nil
	}
	got := names(m.Payload)
	st.takes = append(st.takes, got)
	st.items += len(got)
	if a.onStep != nil {
		a.onStep(p, got)
	}
	for _, g := range got {
		if g == "go" {
			return st, []model.Send{{To: 0, Payload: tag("reply")}}
		}
	}
	return st, nil
}
func (a linkAut) Idle(p model.ProcessID, _ model.State, _ model.FDValue) bool {
	if a.onIdle != nil {
		a.onIdle(p)
	}
	return true
}
func (a linkAut) Merge(x, y model.Payload) model.Payload {
	return tags(append(append([]string(nil), names(x)...), names(y)...))
}

// unmerged hides linkAut's Merge: the driver takes one message per step.
type unmerged struct {
	model.Automaton
	model.Idler
}

// prefill puts msgs into a fresh set of n inboxes, each numbered as the
// k-th message on its link.
func prefill(n int, msgs ...*model.Message) []*substrate.Inbox {
	inboxes := substrate.NewInboxes(n)
	var onLink [model.MaxProcesses][model.MaxProcesses]uint64
	for _, m := range msgs {
		onLink[m.From][m.To]++
		m.Seq = substrate.LinkSeq(m.From, m.To, onLink[m.From][m.To])
		inboxes[m.To].Put(m)
	}
	return inboxes
}

func msgTo(to, from model.ProcessID, pl model.Payload) *model.Message {
	return &model.Message{From: from, To: to, Payload: pl}
}

// TestRunClusterTakesALinkRun: with a Merger, a take gets the oldest
// pending message and every later one from its sender, in link order, up
// to the first superseding one, and leaves the other senders' messages
// where they were; the superseding one is taken alone. Each message taken
// gets its Deliver. Without a Merger every step takes one message.
func TestRunClusterTakesALinkRun(t *testing.T) {
	interleaved := func() []*model.Message {
		return []*model.Message{
			msgTo(0, 1, tag("a1")), msgTo(0, 2, tag("b1")), msgTo(0, 1, tag("a2")),
			msgTo(0, 2, tag("b2")), msgTo(0, 1, tag("a3")), msgTo(0, 1, newest("s")),
			msgTo(0, 1, tag("a4")),
		}
	}

	// The inbox alone: the run of p1, then what is left in its old order.
	box := prefill(3, interleaved()...)[0]
	run, pending := box.TakeRun(nil, true)
	if got := seqNames(run); !reflect.DeepEqual(got, []string{"a1", "a2", "a3"}) || pending != 4 {
		t.Fatalf("TakeRun took %v and left %d pending, want [a1 a2 a3] and 4", got, pending)
	}
	var rest []string
	for m := box.Take(); m != nil; m = box.Take() {
		rest = append(rest, names(m.Payload)...)
	}
	if !reflect.DeepEqual(rest, []string{"b1", "b2", "s", "a4"}) {
		t.Fatalf("TakeRun left %v, want [b1 b2 s a4]", rest)
	}

	for _, tc := range []struct {
		name   string
		aut    model.Automaton
		takes  [][]string
		merged int64
	}{
		{"merger", linkAut{n: 3, want: 7},
			[][]string{{"a1", "a2", "a3"}, {"b1", "b2"}, {"s"}, {"a4"}}, 3},
		{"plain", unmerged{linkAut{n: 3, want: 7}, linkAut{n: 3, want: 7}},
			[][]string{{"a1"}, {"b1"}, {"a2"}, {"b2"}, {"a3"}, {"s"}, {"a4"}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			events := obs.NewCollector(obs.KindDeliver)
			res, err := substrate.RunCluster(context.Background(), tc.aut, fd.Null, model.NewFailurePattern(3),
				substrate.Options{Seed: 1, MaxSteps: 100_000, StopWhenDecided: true, Bus: obs.NewBus(nil, reg, events), Metrics: reg},
				substrate.ClusterHooks{Inboxes: prefill(3, interleaved()...)})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Config.States[0].(*linkState).takes; !res.Decided || !reflect.DeepEqual(got, tc.takes) {
				t.Fatalf("p0 took %v (decided %v), want %v", got, res.Decided, tc.takes)
			}
			if got := reg.Counter("substrate.takes_merged").Value(); got != tc.merged {
				t.Errorf("substrate.takes_merged = %d, want %d", got, tc.merged)
			}
			if got := len(events.Events()); got != 7 {
				t.Errorf("%d Deliver events for 7 messages taken", got)
			}
		})
	}
}

func seqNames(msgs []*model.Message) []string {
	var out []string
	for _, m := range msgs {
		out = append(out, names(m.Payload)...)
	}
	return out
}

// TestRunClusterNeverWaitsHolding: a process holds its sends over the
// backlog its run's first step found, but a take that finds nothing ends
// the run even when the backlog shrank without being taken, whether the
// process then takes its λ-step or skips it as idle. p1 finds "go" and two
// messages from p2 behind it; while "go" is resolved a superseding message
// from p2 collapses those two, so p1 takes one message where it counted
// two, and its next take finds nothing while it still holds the reply. A
// driver that waits holding the reply never lets it out, and p0 never
// decides.
func TestRunClusterNeverWaitsHolding(t *testing.T) {
	aut := linkAut{n: 3, want: 1}
	for _, tc := range []struct {
		name string
		aut  model.Automaton
	}{
		{"idle", aut}, // reports idle while the reply is held
		{"stepping", struct {
			model.Automaton
			model.Merger
		}{aut, aut}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inboxes := prefill(3, msgTo(1, 0, tag("go")), msgTo(1, 2, old("f1")), msgTo(1, 2, old("f2")))
			var collapsed atomic.Bool
			resolve := func(m *model.Message) *model.Message {
				if m.To == 1 && !collapsed.Swap(true) {
					inboxes[1].Put(&model.Message{From: 2, To: 1, Seq: substrate.LinkSeq(2, 1, 3), Payload: newest("f3")})
				}
				return m
			}
			res, err := substrate.RunCluster(context.Background(), tc.aut, fd.Null, model.NewFailurePattern(3),
				substrate.Options{Seed: 1, MaxSteps: 3000, StopWhenDecided: true},
				substrate.ClusterHooks{Inboxes: inboxes, Resolve: resolve})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Config.States[1].(*linkState).takes; !reflect.DeepEqual(got, [][]string{{"go"}, {"f3"}}) {
				t.Fatalf("p1 took %v, want [[go] [f3]]: the collapse did not happen as staged", got)
			}
			if !res.Decided || res.MessagesSent != 1 {
				t.Fatalf("p0 decided %v after %d messages sent in %d ticks: p1 waited holding its reply",
					res.Decided, res.MessagesSent, res.Ticks)
			}
		})
	}
}

// TestCrashMidRunFlushesHeld: a process that crashes between the steps of
// a run lets out the sends its taken steps made, each with its Send event
// before the crash. p1 takes "go" with one more message pending, so it
// holds its reply; while its step runs, the others' passes push the clock
// past p1's crash time, and p1's next pass crashes it. p0 still gets the
// reply, and the Deliver names the Send.
func TestCrashMidRunFlushesHeld(t *testing.T) {
	const crashAt = 30
	inboxes := prefill(3, msgTo(1, 0, tag("go")), msgTo(1, 2, tag("x")))
	started := make(chan struct{})
	var idles atomic.Int64
	aut := linkAut{
		n: 3, want: 1,
		onStep: func(p model.ProcessID, got []string) {
			if p != 1 {
				return
			}
			close(started)
			for deadline := time.Now().Add(10 * time.Second); idles.Load() < 2*crashAt; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("the other processes never ticked the clock past p1's crash")
					return
				}
			}
		},
		onIdle: func(p model.ProcessID) {
			<-started // p1's first pass comes before any tick it could crash at
			idles.Add(1)
		},
	}
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{1: crashAt})
	events := obs.NewCollector(obs.KindSend, obs.KindDeliver, obs.KindCrash)
	res, err := substrate.RunCluster(context.Background(), aut, fd.Null, pattern,
		substrate.Options{Seed: 1, MaxSteps: 5000, StopWhenDecided: true, Bus: obs.NewBus(nil, nil, events)},
		substrate.ClusterHooks{Inboxes: inboxes})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.MessagesSent != 1 {
		t.Fatalf("p0 decided %v after %d messages sent: p1's held reply was lost in its crash", res.Decided, res.MessagesSent)
	}
	var send *obs.Event
	crashed, delivered := false, false
	for _, ev := range events.Events() {
		switch ev.Kind {
		case obs.KindSend:
			if crashed {
				t.Errorf("p%d's Send after its crash", ev.P)
			}
			send = &ev
		case obs.KindCrash:
			crashed = ev.P == 1
		case obs.KindDeliver:
			if ev.P != 0 {
				continue // p1's take of the prefilled "go", which nobody sent
			}
			if send == nil || ev.From != send.From || ev.Seq != send.Seq || ev.P != send.To {
				t.Errorf("p%d delivered %v#%d, which no Send stamped", ev.P, ev.From, ev.Seq)
			}
			delivered = true
		}
	}
	if send == nil || send.From != 1 || !crashed || !delivered {
		t.Errorf("send %v, crashed %v, delivered %v: want p1's reply sent, then its crash, then the reply delivered", send, crashed, delivered)
	}
}
