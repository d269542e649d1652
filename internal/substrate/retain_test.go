package substrate_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"
)

// selfPing sends itself one message per step, so its inbox is never empty
// and the driver's idle backoff never sleeps: the run below is 200k steps
// in well under a second.
type selfPing struct{ n int }

type pingState struct{}

func (pingState) CloneState() model.State { return pingState{} }

type ping struct{}

func (ping) Kind() string   { return "PING" }
func (ping) String() string { return "PING" }

func (a selfPing) Name() string                          { return "self-ping" }
func (a selfPing) N() int                                { return a.n }
func (a selfPing) InitState(model.ProcessID) model.State { return pingState{} }
func (a selfPing) Step(p model.ProcessID, s model.State, _ *model.Message, _ model.FDValue) (model.State, []model.Send) {
	return s, []model.Send{{To: p, Payload: ping{}}}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunRetainsNothingPerStep: a run with no bus attached keeps no
// per-step record — what a serving daemon relies on to live for ever. The
// driver used to allocate a sample-keeping recorder whenever the caller
// passed none, and appended one 32-byte sample per step under the cluster
// lock (6.4 MB over this run; 200 MB of RSS over a 24 s nucd benchmark).
func TestRunRetainsNothingPerStep(t *testing.T) {
	const steps = 200_000
	pattern := model.NewFailurePattern(3)
	before := heapAlloc()
	res, err := async.Run(context.Background(), selfPing{n: 3}, fd.NewOmega(pattern, 0, 1), pattern, substrate.Options{
		Seed:     1,
		MaxSteps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()
	if res.Steps != steps || res.MessagesSent != steps || res.SentKinds["PING"] != steps {
		t.Fatalf("Steps=%d MessagesSent=%d SentKinds=%v, want %d of each", res.Steps, res.MessagesSent, res.SentKinds, steps)
	}
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Errorf("live heap grew by %d bytes over a %d-step run with no bus: something is kept per step", grown, steps)
	}
	runtime.KeepAlive(res)

	// The only per-step slices a Result can carry are the kept schedule's.
	rt := reflect.TypeOf(*res)
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Slice && f.Name != "Schedule" && f.Name != "Times" {
			t.Errorf("Result.%s is a slice: per-step streams belong on the bus", f.Name)
		}
	}
	if res.Schedule != nil || res.Times != nil {
		t.Errorf("Result kept a schedule (%d steps) nobody asked for", len(res.Schedule))
	}
}
