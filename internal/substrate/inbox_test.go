package substrate_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"
)

// plainPayload is an ordinary payload; older pending copies are never
// collapsed.
type plainPayload struct {
	kind string
	body int
}

func (p plainPayload) Kind() string   { return p.kind }
func (p plainPayload) String() string { return fmt.Sprintf("%s(%d)", p.kind, p.body) }

// snapshotPayload models a monotone snapshot flood: a newer message
// supersedes older pending ones of the same kind from the same sender.
type snapshotPayload struct{ plainPayload }

func (snapshotPayload) SupersedesOlder() {}

func msg(from, to model.ProcessID, seq uint64, p model.Payload) *model.Message {
	return &model.Message{From: from, To: to, Seq: seq, Payload: p}
}

// TestInboxFIFOPerLink: messages put in per-sender order come out in that
// order per sender, regardless of how sends from different senders
// interleave — the per-link FIFO guarantee both concurrent substrates rely
// on (the transports put in send order per link).
func TestInboxFIFOPerLink(t *testing.T) {
	box := &substrate.Inbox{}
	// Interleave two senders' streams.
	var seq uint64
	for i := 0; i < 5; i++ {
		seq++
		box.Put(msg(1, 0, seq, plainPayload{"EST", 10 + i}))
		seq++
		box.Put(msg(2, 0, seq, plainPayload{"EST", 20 + i}))
	}
	if got := box.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	last := map[model.ProcessID]int{1: 9, 2: 19}
	for box.Len() > 0 {
		m := box.Take()
		body := m.Payload.(plainPayload).body
		if body <= last[m.From] {
			t.Fatalf("per-link FIFO violated: got %v after body %d", m, last[m.From])
		}
		last[m.From] = body
	}
	if m := box.Take(); m != nil {
		t.Fatalf("Take on empty inbox = %v, want nil", m)
	}
}

// TestInboxSupersededCollapsing: a superseding payload removes the older
// pending payloads of the same kind from the same sender — and only those.
func TestInboxSupersededCollapsing(t *testing.T) {
	box := &substrate.Inbox{}
	box.Put(msg(1, 0, 1, snapshotPayload{plainPayload{"DAG", 1}}))
	box.Put(msg(1, 0, 2, plainPayload{"EST", 7}))                  // different kind: kept
	box.Put(msg(2, 0, 3, snapshotPayload{plainPayload{"DAG", 2}})) // different sender: kept
	box.Put(msg(1, 0, 4, snapshotPayload{plainPayload{"DAG", 3}})) // collapses seq 1

	if got := box.Len(); got != 3 {
		t.Fatalf("Len = %d after collapsing, want 3", got)
	}
	var seqs []uint64
	for box.Len() > 0 {
		seqs = append(seqs, box.Take().Seq)
	}
	want := []uint64{2, 3, 4}
	for i, s := range want {
		if seqs[i] != s {
			t.Fatalf("drained seqs %v, want %v", seqs, want)
		}
	}
}

// TestInboxSupersededDropCounter: the inbox accounts for every message it
// collapses — the counter the cluster driver publishes to the metrics
// registry as inbox.superseded_drops — and only for those: plain payloads
// and superseding puts that found nothing to collapse leave it untouched.
func TestInboxSupersededDropCounter(t *testing.T) {
	box := &substrate.Inbox{}
	if got := box.SupersededDrops(); got != 0 {
		t.Fatalf("fresh inbox SupersededDrops = %d, want 0", got)
	}
	box.Put(msg(1, 0, 1, snapshotPayload{plainPayload{"DAG", 1}})) // nothing to collapse
	box.Put(msg(1, 0, 2, plainPayload{"EST", 7}))                  // plain: never collapses
	if got := box.SupersededDrops(); got != 0 {
		t.Fatalf("SupersededDrops = %d after non-collapsing puts, want 0", got)
	}
	box.Put(msg(1, 0, 3, snapshotPayload{plainPayload{"DAG", 2}})) // collapses seq 1
	if got := box.SupersededDrops(); got != 1 {
		t.Fatalf("SupersededDrops = %d, want 1", got)
	}
	box.Put(msg(1, 0, 4, snapshotPayload{plainPayload{"DAG", 3}})) // collapses seq 3
	box.Put(msg(2, 0, 5, snapshotPayload{plainPayload{"DAG", 9}})) // other sender: no collapse
	if got := box.SupersededDrops(); got != 2 {
		t.Fatalf("SupersededDrops = %d, want 2", got)
	}
	// The counter matches what actually disappeared from the queue.
	if put, left := 5, box.Len(); int64(put-left) != box.SupersededDrops() {
		t.Fatalf("put %d, %d pending, but SupersededDrops = %d", put, left, box.SupersededDrops())
	}
}

// TestInboxConcurrentPutTake exercises the lock under the race detector:
// every message put by concurrent senders is taken exactly once.
func TestInboxConcurrentPutTake(t *testing.T) {
	box := &substrate.Inbox{}
	const senders, per = 4, 250
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				box.Put(msg(model.ProcessID(s), 0, uint64(s*per+i+1), plainPayload{"EST", i}))
			}
		}(s)
	}
	done := make(chan int)
	go func() {
		taken := 0
		for taken < senders*per {
			if box.Take() != nil {
				taken++
			}
		}
		done <- taken
	}()
	wg.Wait()
	if got := <-done; got != senders*per {
		t.Fatalf("took %d messages, want %d", got, senders*per)
	}
	if box.Len() != 0 {
		t.Fatalf("inbox not drained: %d left", box.Len())
	}
}

// waitBound is far longer than any wake-up takes, so a Wait that runs into
// it was not woken.
const waitBound = 10 * time.Second

// TestInboxWaitEndsOnArrival: a Put or a PutBatch from another goroutine
// ends a Wait well before its bound, and Wait reports the arrival.
func TestInboxWaitEndsOnArrival(t *testing.T) {
	puts := map[string]func(*substrate.Inbox, *model.Message){
		"Put":      (*substrate.Inbox).Put,
		"PutBatch": func(b *substrate.Inbox, m *model.Message) { b.PutBatch([]*model.Message{m}) },
	}
	for name, put := range puts {
		t.Run(name, func(t *testing.T) {
			box := &substrate.Inbox{}
			go func() {
				time.Sleep(5 * time.Millisecond)
				put(box, msg(1, 0, 1, plainPayload{"EST", 1}))
			}()
			start := time.Now()
			woken := box.Wait(waitBound)
			if took := time.Since(start); !woken || took > waitBound/2 {
				t.Fatalf("Wait = %v after %v, want an arrival well before %v", woken, took, waitBound)
			}
			if box.Take() == nil {
				t.Fatal("Wait reported an arrival, but nothing is pending")
			}
		})
	}
}

// TestInboxWaitAfterPut: a put made before the wait is not lost — Wait
// returns at once — while a wake-up whose message was already taken does
// not cut the next wait short.
func TestInboxWaitAfterPut(t *testing.T) {
	box := &substrate.Inbox{}
	box.Wait(time.Millisecond) // once waited on, every put leaves a wake-up
	box.Put(msg(1, 0, 1, plainPayload{"EST", 1}))
	start := time.Now()
	if woken := box.Wait(waitBound); !woken || time.Since(start) > waitBound/2 {
		t.Fatalf("Wait = %v after %v with a message pending, want true at once", woken, time.Since(start))
	}
	box.Take()
	if box.Wait(5 * time.Millisecond) {
		t.Fatal("Wait reported an arrival for a message already taken")
	}
}

// TestInboxWaitTimesOut: with no put, Wait returns after its bound and
// reports no arrival.
func TestInboxWaitTimesOut(t *testing.T) {
	box := &substrate.Inbox{}
	const d = 5 * time.Millisecond
	for i := 0; i < 2; i++ { // the second wait reuses the first one's timer
		start := time.Now()
		if box.Wait(d) {
			t.Fatal("Wait reported an arrival on an inbox nobody put to")
		}
		if took := time.Since(start); took < d {
			t.Fatalf("Wait returned after %v, before its bound %v", took, d)
		}
	}
}

// TestInboxWaitLosesNoWakeUp: a consumer that waits whenever its take finds
// nothing, against concurrent senders, is woken for every message — a lost
// wake-up would run into the bound and fail the test.
func TestInboxWaitLosesNoWakeUp(t *testing.T) {
	box := &substrate.Inbox{}
	const senders, per = 4, 250
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < per; i++ {
				box.Put(msg(model.ProcessID(s), 0, uint64(s*per+i+1), plainPayload{"EST", i}))
			}
		}(s)
	}
	for taken := 0; taken < senders*per; {
		if box.Take() != nil {
			taken++
		} else if !box.Wait(waitBound) {
			t.Fatalf("a wait ran into its bound with %d of %d messages still to come", senders*per-taken, senders*per)
		}
	}
}
