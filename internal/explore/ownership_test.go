package explore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/transform"
)

// The ownership contract of model.Automaton, checked once for every
// automaton in the tree. Step consumes the state it is handed, so the three
// things a fork (this package's apply, Configuration.Clone) relies on are
// obligations of each implementation rather than consequences of a
// per-step clone:
//
//   - a CloneState taken at step k is unaffected by the original stepping
//     on, and the original by the clone stepping on;
//   - a payload, once sent, never changes (it aliases no live state);
//   - InitState returns memory no other InitState result can reach.
//
// "Unaffected" is judged on the explorer's own canonical encoding — what a
// fork's fingerprint is computed from — rendered before and after.

const (
	ownershipWarm = 6  // steps per process before the fork is taken
	ownershipAge  = 50 // steps per process each side then takes alone
)

type ownershipCase struct {
	name string
	// build returns a fresh automaton: serve's carries per-run resources.
	build func() model.Automaton
	hist  model.History
	// linear marks automata whose steps also write per-run resources outside
	// the state (serve's appliers and ingress queues): a fork of such a
	// state may be held but not stepped, so only the held half is checked.
	linear bool
	// feed, if non-nil, runs once after the fork is taken, to put work in
	// front of the original that arrived from outside the message system.
	feed func()
}

func ownershipCases() []ownershipCase {
	const n = 3
	// The detectors stay in their noisy prefix for the whole run and p2 is
	// faulty (it crashes long after the run ends), so quorums vary and even
	// the automata whose state is just the last sample keep moving.
	const never = 1 << 20
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{2: never})
	pair := fd.PairHistory{
		First:  fd.NewOmega(pattern, never, 1),
		Second: fd.NewSigmaNuPlus(pattern, never, 3),
	}
	suspicion := fd.NewSuspicion(pattern, never, 3)
	props := []int{0, 1, 1}
	anuc := func(ps []int) model.Automaton { return consensus.NewANuc(ps) }
	cmds := [][]int{{1, 2, 3}, {4, 5}, {6}}
	heartbeats := func(pl model.Payload) bool { _, ok := pl.(hb.HeartbeatPayload); return ok }

	cases := []ownershipCase{
		{name: "A_nuc", build: func() model.Automaton { return consensus.NewANuc(props) }, hist: pair},
		{name: "MR/majority", build: func() model.Automaton { return consensus.NewMRMajority(props) }, hist: pair},
		{name: "MR/sigma", build: func() model.Automaton { return consensus.NewMRSigma(props) }, hist: pair},
		{name: "MR/naive-nu", build: func() model.Automaton { return consensus.NewMRNaiveNu(props) }, hist: pair},
		{name: "CT", build: func() model.Automaton { return consensus.NewCT(props) }, hist: suspicion},
		{name: "A_DAG", build: func() model.Automaton { return dag.NewADag(n) }, hist: pair},
		{name: "T_{D→Σν}", build: func() model.Automaton { return transform.NewSigmaNuExtractor(n, anuc, 4) }, hist: pair},
		{name: "T_{Σν→Σν+}", build: func() model.Automaton { return transform.NewSigmaNuPlusTransformer(n) }, hist: pair},
		{name: "T_{◇P→Ω}", build: func() model.Automaton { return transform.NewOmegaFromSuspects(n) }, hist: suspicion},
		{name: "Σν-passthrough", build: func() model.Automaton { return transform.NewPassthroughQuorum(n) }, hist: pair},
		{name: "Σ-scratch", build: func() model.Automaton { return transform.NewScratchSigma(n, 1) }, hist: fd.Null},
		{name: "composed", build: func() model.Automaton {
			return transform.NewComposed(transform.NewSigmaNuPlusTransformer(n), consensus.NewANuc(props))
		}, hist: pair},
		{name: "feed", build: func() model.Automaton {
			return transform.NewFeed(hb.NewSuspector(n, 0, 0), consensus.NewCT(props), heartbeats)
		}, hist: fd.Null},
		{name: "oracle-free", build: func() model.Automaton {
			return transform.NewOracleFree(hb.NewOmega(n, 0, 0), transform.NewScratchSigmaNuPlus(n, 1), consensus.NewANuc(props))
		}, hist: fd.Null},
		{name: "Ω-heartbeat", build: func() model.Automaton { return hb.NewOmega(n, 0, 0) }, hist: fd.Null},
	}
	for _, window := range []int{1, 2} {
		cases = append(cases, ownershipCase{
			name:  fmt.Sprintf("rsm/shared/window=%d", window),
			build: func() model.Automaton { return rsm.NewLog(cmds, 6).WithPipeline(window) },
			hist:  pair,
		})
	}

	batch := func(client uint32, seq uint64) []serve.Command {
		return []serve.Command{{Client: client, Seq: seq, Op: serve.OpPut, Key: uint64(client), Val: int64(seq)}}
	}
	var cluster *serve.Cluster
	cases = append(cases, ownershipCase{
		name: "serve.Replica",
		build: func() model.Automaton {
			cluster = serve.NewCluster(serve.Config{N: n, Slots: 12, Pipeline: 2, Workload: [][]serve.Batch{
				{{Cmds: batch(1, 1)}, {Cmds: batch(1, 2)}}, {{Cmds: batch(2, 1)}}, nil,
			}})
			return cluster.Automaton()
		},
		hist:   pair,
		linear: true,
		feed: func() { // exercises rsm.Log.Inject
			for p := 0; p < n; p++ {
				cluster.Ingress(model.ProcessID(p)).Push(batch(uint32(10+p), 1))
			}
		},
	})
	return cases
}

var automatonType = reflect.TypeOf((*model.Automaton)(nil)).Elem()

// renderState is the canonical encoding of a state, minus any field that
// points back at the automaton: that is wiring shared by every state of
// the run (and, for serve, the door to its per-run resources), not state.
func renderState(s model.State) string {
	v := reflect.ValueOf(s)
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return canonicalString(s)
	}
	var b bytes.Buffer
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Type().Implements(automatonType) {
			continue
		}
		encodeCanonical(&b, v.Field(i), 1)
		b.WriteByte(';')
	}
	return b.String()
}

func renderStates(c *model.Configuration) []string {
	out := make([]string, len(c.States))
	for p, s := range c.States {
		out[p] = renderState(s)
	}
	return out
}

// sentLog remembers every message sent with its payload's encoding at send
// time (hashed: DAG snapshots are large).
type sentLog struct {
	msgs   []*model.Message
	hashes []uint64
}

// drive applies steps·n steps to c, processes round-robin, each receiving
// the oldest message pending for it, with times continuing from t.
func (l *sentLog) drive(aut model.Automaton, c *model.Configuration, hist model.History, t model.Time, steps int) model.Time {
	n := aut.N()
	for i := 0; i < steps*n; i++ {
		t++
		p := model.ProcessID(i % n)
		for _, m := range c.Apply(aut, model.Step{P: p, M: c.Buffer.Oldest(p), D: hist.Output(p, t)}) {
			l.msgs = append(l.msgs, m)
			l.hashes = append(l.hashes, hash64(canonicalString(m.Payload)))
		}
	}
	return t
}

func TestOwnershipContract(t *testing.T) {
	for _, tc := range ownershipCases() {
		t.Run(tc.name, func(t *testing.T) {
			aut := tc.build()
			n := aut.N()

			// Spare initial states, never stepped: they must come out of the
			// run exactly as they went in, and equal to a later InitState.
			spare := &model.Configuration{States: make([]model.State, n)}
			for p := range spare.States {
				spare.States[p] = aut.InitState(model.ProcessID(p))
			}
			spareWas := renderStates(spare)

			var sent sentLog
			orig := model.InitialConfiguration(aut)
			now := sent.drive(aut, orig, tc.hist, 0, ownershipWarm)

			fork := orig.Clone()
			forkWas := renderStates(fork)
			if origNow := renderStates(orig); !reflect.DeepEqual(forkWas, origNow) {
				t.Fatalf("a fresh clone renders differently from its original:\n%v\n%v", forkWas, origNow)
			}
			if tc.feed != nil {
				tc.feed()
			}

			sent.drive(aut, orig, tc.hist, now, ownershipAge)
			origWas := renderStates(orig)
			if reflect.DeepEqual(origWas, forkWas) {
				t.Fatalf("%d steps per process changed no state: the case exercises nothing", ownershipAge)
			}
			if got := renderStates(fork); !reflect.DeepEqual(got, forkWas) {
				t.Errorf("the original's steps reached a clone taken %d steps earlier", ownershipAge)
			}
			if !tc.linear {
				sent.drive(aut, fork, tc.hist, now, ownershipAge)
				if got := renderStates(orig); !reflect.DeepEqual(got, origWas) {
					t.Error("the clone's steps reached the original")
				}
			}

			for i, m := range sent.msgs {
				if got := hash64(canonicalString(m.Payload)); got != sent.hashes[i] {
					t.Errorf("payload %v changed after it was sent: it aliases live state", m)
					break
				}
			}

			if got := renderStates(spare); !reflect.DeepEqual(got, spareWas) {
				t.Error("stepping one InitState result changed another")
			}
			for p := range spare.States {
				if got := renderState(aut.InitState(model.ProcessID(p))); got != spareWas[p] {
					t.Errorf("InitState(%d) after the run differs from InitState(%d) before it", p, p)
				}
			}
		})
	}
}
