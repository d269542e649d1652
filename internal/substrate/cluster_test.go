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
// Seq, unique within the run and increasing per sender (a sender's steps
// are sequential, so its sends are numbered in send order).
func TestRunClusterNumbersMessages(t *testing.T) {
	const n = 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{3: 80})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 150, 2),
		Second: fd.NewSigmaNuPlus(pattern, 150, 2),
	}
	inboxes := substrate.NewInboxes(n)
	var (
		mu      sync.Mutex
		seen    = map[uint64]bool{}
		lastSeq [n]uint64
		total   int
	)
	dispatch := func(msgs []*model.Message) {
		mu.Lock()
		for _, m := range msgs {
			switch {
			case m.Seq == 0:
				t.Errorf("message %v dispatched without a Seq", m)
			case seen[m.Seq]:
				t.Errorf("Seq %d dispatched twice", m.Seq)
			case m.Seq <= lastSeq[m.From]:
				t.Errorf("%v sent Seq %d after Seq %d", m.From, m.Seq, lastSeq[m.From])
			}
			seen[m.Seq] = true
			lastSeq[m.From] = m.Seq
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
	if total == 0 || total != res.Rec.MessagesSent {
		t.Fatalf("dispatched %d messages, recorder counted %d sent", total, res.Rec.MessagesSent)
	}
}
