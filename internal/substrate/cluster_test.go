package substrate_test

import (
	"context"
	"sync"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"
)

// TestRunClusterNumbersMessages: the driver, not the transport, assigns
// sequence numbers — every message handed to Dispatch carries a non-zero
// Seq, unique within the run, and the k-th message p sends q carries
// LinkSeq(p, q, k), the number the receiving end of a FIFO link can count
// (a sender's steps are sequential, so its sends are numbered in send
// order).
func TestRunClusterNumbersMessages(t *testing.T) {
	const n = 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{3: 80})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 150, 2),
		Second: fd.NewSigmaNuPlus(pattern, 150, 2),
	}
	inboxes := substrate.NewInboxes(n)
	var (
		mu     sync.Mutex
		seen   = map[uint64]bool{}
		onLink [n][n]uint64 // messages dispatched on each link so far
		total  int
	)
	dispatch := func(msgs []*model.Message) {
		mu.Lock()
		for _, m := range msgs {
			onLink[m.From][m.To]++
			switch k := onLink[m.From][m.To]; {
			case m.Seq == 0:
				t.Errorf("message %v dispatched without a Seq", m)
			case seen[m.Seq]:
				t.Errorf("Seq %d dispatched twice", m.Seq)
			case m.Seq != substrate.LinkSeq(m.From, m.To, k):
				t.Errorf("message %d from %v to %v carries Seq %d, want %d", k, m.From, m.To, m.Seq, substrate.LinkSeq(m.From, m.To, k))
			}
			seen[m.Seq] = true
			total++
		}
		mu.Unlock()
		for _, m := range msgs {
			inboxes[m.To].Put(m)
		}
	}
	res, err := substrate.RunCluster(context.Background(), consensus.NewANuc([]int{1, 0, 1, 0}), hist, pattern,
		substrate.Options{Seed: 2, MaxSteps: 100000, StopWhenDecided: true},
		substrate.ClusterHooks{Inboxes: inboxes, Dispatch: dispatch})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Stopped {
		t.Fatalf("Decided=%v Stopped=%v after %d ticks", res.Decided, res.Stopped, res.Ticks)
	}
	byKind := 0
	for _, k := range res.SentKinds {
		byKind += k
	}
	if total == 0 || total != res.MessagesSent || total != byKind {
		t.Fatalf("dispatched %d messages, Result counts %d sent, %d by kind", total, res.MessagesSent, byKind)
	}
}

// onceAut counts InitState calls; its states count their own steps in
// place, which is what the ownership rule of model.Automaton permits.
type onceAut struct {
	n     int
	mu    sync.Mutex
	inits map[model.ProcessID]int
}

type onceState struct{ steps int }

func (s *onceState) CloneState() model.State { c := *s; return &c }

func (a *onceAut) Name() string { return "once" }
func (a *onceAut) N() int       { return a.n }
func (a *onceAut) InitState(p model.ProcessID) model.State {
	a.mu.Lock()
	a.inits[p]++
	a.mu.Unlock()
	return &onceState{}
}
func (a *onceAut) Step(_ model.ProcessID, s model.State, _ *model.Message, _ model.FDValue) (model.State, []model.Send) {
	s.(*onceState).steps++
	return s, nil
}

// TestRunClusterOwnsOneStatePerProcess: the driver owns the states, so it
// builds each exactly once and the object it reports in Result.Config is
// the one it stepped. (It used to call InitState a second time inside each
// process goroutine and step that copy.)
func TestRunClusterOwnsOneStatePerProcess(t *testing.T) {
	const n = 3
	aut := &onceAut{n: n, inits: map[model.ProcessID]int{}}
	res, err := substrate.RunCluster(context.Background(), aut, fd.Null, model.NewFailurePattern(n),
		substrate.Options{Seed: 1, MaxSteps: 300}, substrate.ClusterHooks{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := model.ProcessID(0); p < n; p++ {
		if aut.inits[p] != 1 {
			t.Errorf("InitState(%v) called %d times, want 1", p, aut.inits[p])
		}
		total += res.Config.States[p].(*onceState).steps
	}
	if total != res.Steps || total == 0 {
		t.Errorf("reported states took %d steps between them, the run %d", total, res.Steps)
	}
}

// pingPong bounces one message between p0 and p1 until each has received
// pingRounds of them; a process decides once it has.
type pingPong struct{}

type pongState struct {
	started bool
	got     int
}

func (s *pongState) CloneState() model.State { c := *s; return &c }

func (s *pongState) Decision() (int, bool) { return 0, s.got >= pingRounds }

const pingRounds = 1000

func (pingPong) Name() string                          { return "ping-pong" }
func (pingPong) N() int                                { return 2 }
func (pingPong) InitState(model.ProcessID) model.State { return &pongState{} }
func (pingPong) Step(p model.ProcessID, s model.State, m *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*pongState)
	switch {
	case m != nil:
		st.got++
		if p == 0 && st.got == pingRounds {
			return s, nil
		}
	case p == 0 && !st.started:
		st.started = true
	default:
		return s, nil
	}
	return s, []model.Send{{To: 1 - p, Payload: ping{}}}
}

// TestRunClusterStepsOnArrival: a process steps because something arrived,
// not at CPU speed. Between two receipts a ping-pong process takes one
// step that finds its inbox empty and then waits on it, so a run costs two
// steps per message; a driver that spins on an empty inbox takes several.
func TestRunClusterStepsOnArrival(t *testing.T) {
	res, err := substrate.RunCluster(context.Background(), pingPong{}, fd.Null, model.NewFailurePattern(2),
		substrate.Options{Seed: 1, MaxSteps: 1_000_000, StopWhenDecided: true},
		substrate.ClusterHooks{TakeProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.MessagesSent != 2*pingRounds {
		t.Fatalf("Decided=%v after %d messages, want a decision after %d", res.Decided, res.MessagesSent, 2*pingRounds)
	}
	perMsg := float64(res.Steps) / float64(res.MessagesSent)
	t.Logf("%d steps for %d messages: %.2f per message", res.Steps, res.MessagesSent, perMsg)
	if perMsg > 3 {
		t.Errorf("%.2f steps per message sent, want at most 3: idle processes are spinning", perMsg)
	}
}
