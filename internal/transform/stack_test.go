package transform

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
)

// seen is one component step as a recorder logs it: which component
// stepped, the kind of payload it received ("λ" for none), and the
// failure-detector value it sampled.
type seen struct {
	who  string
	got  string
	d    model.FDValue
	sent string
}

// tag is a payload that names what it is.
type tag string

func (t tag) Kind() string   { return string(t) }
func (t tag) String() string { return string(t) }

// recorder is a fake stack component. Each step it appends what it
// received and sampled to log and sends one message tagged with its name.
// Its output variable is Ω = off + the number of steps taken, so a reader
// can tell an output read before the step from one read after it.
type recorder struct {
	name string
	n    int
	off  int
	log  *[]seen
}

type recorderState struct{ out model.ProcessID }

func (s *recorderState) CloneState() model.State       { c := *s; return &c }
func (s *recorderState) EmulatedOutput() model.FDValue { return fd.LeaderValue{Leader: s.out} }

func (r *recorder) Name() string { return r.name }
func (r *recorder) N() int       { return r.n }
func (r *recorder) InitState(model.ProcessID) model.State {
	return &recorderState{out: model.ProcessID(r.off)}
}
func (r *recorder) Step(_ model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	got := "λ"
	if m != nil {
		got = m.Payload.Kind()
	}
	*r.log = append(*r.log, seen{who: r.name, got: got, d: d})
	s.(*recorderState).out++
	return s, []model.Send{{To: 1, Payload: tag(r.name)}}
}

func leader(p model.ProcessID) fd.LeaderValue { return fd.LeaderValue{Leader: p} }

// TestStackContract pins the per-step contract of the one composition
// automaton behind NewComposed, NewOracleFree and NewFeed: which component
// receives each payload kind, the failure-detector value each component
// samples, that emitter sends come before the consumer's, the stack's
// output variable, and the constructors' and Step's panics.
func TestStackContract(t *testing.T) {
	quorum := fd.QuorumValue{Quorum: model.SetOf(1, 2)}
	pair := fd.PairValue{First: leader(2), Second: quorum}
	composed := func(log *[]seen) model.Automaton {
		return NewComposed(&recorder{"T", 3, 10, log}, &recorder{"A", 3, 0, log})
	}
	oracleFree := func(log *[]seen) model.Automaton {
		return NewOracleFree(&recorder{"Ω", 3, 10, log}, &recorder{"Σ", 3, 20, log}, &recorder{"A", 3, 0, log})
	}
	feed := func(log *[]seen) model.Automaton {
		return NewFeed(&recorder{"E", 3, 10, log}, &recorder{"C", 3, 0, log},
			func(pl model.Payload) bool { _, ok := pl.(hb.HeartbeatPayload); return ok })
	}
	// Each emitter has stepped once when the consumer reads its output.
	afterComposed := fd.PairValue{First: leader(2), Second: leader(11)}
	afterOracleFree := fd.PairValue{First: leader(11), Second: leader(21)}

	for _, tc := range []struct {
		name    string
		build   func(log *[]seen) model.Automaton
		msg     model.Payload // nil: a λ-step
		d       model.FDValue
		want    []seen // component steps, in order
		wantOut model.FDValue
		panics  string // non-empty: building or stepping panics with this text
	}{
		{name: "composed/DAG to T", build: composed, msg: dag.GraphPayload{}, d: pair,
			want: []seen{{"T", "DAG", quorum, "T"}, {"A", "λ", afterComposed, "A"}}, wantOut: leader(11)},
		{name: "composed/other to A", build: composed, msg: tag("LEAD"), d: pair,
			want: []seen{{"T", "λ", quorum, "T"}, {"A", "LEAD", afterComposed, "A"}}, wantOut: leader(11)},
		{name: "composed/λ", build: composed, d: pair,
			want: []seen{{"T", "λ", quorum, "T"}, {"A", "λ", afterComposed, "A"}}, wantOut: leader(11)},
		{name: "composed/quorum taken from a Sample", build: composed, msg: tag("LEAD"), d: fd.Sample{Value: pair},
			want: []seen{{"T", "λ", quorum, "T"}, {"A", "LEAD", afterComposed, "A"}}, wantOut: leader(11)},
		{name: "oracle-free/HB to Ω", build: oracleFree, msg: hb.HeartbeatPayload{}, d: pair,
			want:    []seen{{"Ω", "HB", fd.NullValue{}, "Ω"}, {"Σ", "λ", fd.NullValue{}, "Σ"}, {"A", "λ", afterOracleFree, "A"}},
			wantOut: afterOracleFree},
		{name: "oracle-free/RND to Σ", build: oracleFree, msg: RoundPayload{K: 1}, d: fd.Null.Output(0, 0),
			want:    []seen{{"Ω", "λ", fd.NullValue{}, "Ω"}, {"Σ", "RND", fd.NullValue{}, "Σ"}, {"A", "λ", afterOracleFree, "A"}},
			wantOut: afterOracleFree},
		{name: "oracle-free/DAG to A", build: oracleFree, msg: dag.GraphPayload{}, d: fd.Null.Output(0, 0),
			want:    []seen{{"Ω", "λ", fd.NullValue{}, "Ω"}, {"Σ", "λ", fd.NullValue{}, "Σ"}, {"A", "DAG", afterOracleFree, "A"}},
			wantOut: afterOracleFree},
		{name: "feed/HB to E", build: feed, msg: hb.HeartbeatPayload{}, d: pair,
			want: []seen{{"E", "HB", nil, "E"}, {"C", "λ", leader(11), "C"}}, wantOut: leader(11)},
		{name: "feed/other to C", build: feed, msg: RoundPayload{K: 1}, d: pair,
			want: []seen{{"E", "λ", nil, "E"}, {"C", "RND", leader(11), "C"}}, wantOut: leader(11)},
		{name: "composed/size mismatch", panics: "component sizes differ",
			build: func(*[]seen) model.Automaton {
				return NewComposed(NewSigmaNuPlusTransformer(2), &fakeConsumer{n: 3})
			}},
		{name: "oracle-free/size mismatch", panics: "component sizes differ",
			build: func(*[]seen) model.Automaton {
				return NewOracleFree(hb.NewOmega(3, 0, 0), NewScratchSigmaNuPlus(5, 2), consensus.NewANuc([]int{0, 1, 0, 1, 0}))
			}},
		{name: "feed/size mismatch", panics: "component sizes differ",
			build: func(log *[]seen) model.Automaton {
				return NewFeed(&recorder{"E", 4, 10, log}, &recorder{"C", 3, 0, log}, nil)
			}},
		{name: "composed/missing Σν", build: composed, d: leader(2), panics: "needs a Σν component"},
		{name: "composed/missing Ω", build: composed, d: quorum, panics: "needs an Ω component"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []seen
			var a model.Automaton
			var st model.State
			var sends []model.Send
			r := func() (r any) {
				defer func() { r = recover() }()
				a = tc.build(&log)
				var m *model.Message
				if tc.msg != nil {
					m = &model.Message{From: 1, To: 0, Payload: tc.msg}
				}
				st, sends = a.Step(0, a.InitState(0), m, tc.d)
				return nil
			}()
			if tc.panics != "" {
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.panics) {
					t.Fatalf("recovered %v, want a panic with %q", r, tc.panics)
				}
				return
			}
			if r != nil {
				t.Fatalf("unexpected panic: %v", r)
			}
			if len(sends) != len(log) {
				t.Fatalf("%d sends for %d component steps", len(sends), len(log))
			}
			for i := range log {
				log[i].sent = sends[i].Payload.Kind()
			}
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("component steps (who, got, sampled, sent):\n got %v\nwant %v", log, tc.want)
			}
			if out := st.(model.FDOutput).EmulatedOutput(); !reflect.DeepEqual(out, tc.wantOut) {
				t.Errorf("EmulatedOutput = %v, want %v", out, tc.wantOut)
			}
		})
	}

	names := map[string]string{"composed": "T∘A", "oracle-free": "Ω+Σ∘A", "feed": "E▸C"}
	for kind, build := range map[string]func(*[]seen) model.Automaton{"composed": composed, "oracle-free": oracleFree, "feed": feed} {
		if got := build(nil).Name(); got != names[kind] {
			t.Errorf("%s: Name() = %q, want %q", kind, got, names[kind])
		}
	}
}
