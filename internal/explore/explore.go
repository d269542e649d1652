package explore

import (
	"fmt"
	"sort"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// Choice identifies one transition out of an explored state: process P
// takes a step in which it receives the oldest pending message on the
// link From→P (From == model.NoProcess encodes λ, the empty message), and
// its failure-detector module outputs entry FD of the adversary menu for
// (P, t). Choices are ordered lexicographically by (P, From, FD); the
// enumerator generates them in that order, which makes "the first
// counterexample" well defined.
type Choice struct {
	P    model.ProcessID `json:"p"`
	From model.ProcessID `json:"from"` // model.NoProcess encodes λ
	FD   int             `json:"fd"`
}

// String renders a choice like "p1<p0/2" (deliver from p0, menu entry 2)
// or "p1/0" (λ).
func (c Choice) String() string {
	if c.From == model.NoProcess {
		return fmt.Sprintf("%s/%d", c.P, c.FD)
	}
	return fmt.Sprintf("%s<%s/%d", c.P, c.From, c.FD)
}

// choiceLess is the canonical (P, From, FD) order; λ sorts before
// deliveries because model.NoProcess is negative.
func choiceLess(a, b Choice) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.FD < b.FD
}

// Options configures one bounded exploration.
type Options struct {
	Automaton model.Automaton
	Pattern   *model.FailurePattern
	Menu      Menu
	// Bound is the exploration depth: states at depth Bound are visited
	// (and checked) but not expanded.
	Bound int
	// Property, when non-nil, is checked on every visited configuration; a
	// non-nil error marks the state as violating. It must be a pure
	// function of the configuration.
	Property func(*model.Configuration) error
	// StopAtViolation stops the exploration at the end of the first level
	// containing a violating state (the level is still completed, so the
	// reported counterexample is the lexicographically least schedule to a
	// shallowest violation).
	StopAtViolation bool
	// Progress, when non-nil, is called after each completed level with the
	// level depth, the size of the next frontier and the cumulative unique
	// state count. It runs on the calling goroutine; CLI drivers use it for
	// stderr progress lines.
	Progress func(depth, frontier int, states int64)
	// DisablePOR turns the sleep-set reduction off. The set of visited
	// states and all verdicts are identical either way (the reduction only
	// skips redundant edges); tests cross-check that.
	DisablePOR bool
	// DisableStutterElim turns stutter elimination off. A λ step that sends
	// nothing and leaves its process's state unchanged, taken at a time from
	// which the failure pattern and the adversary menu are constant through
	// the bound, is a pure stutter: deleting it from any violating schedule
	// (shifting the rest one slot earlier) yields a shorter violating
	// schedule, so pruning such steps preserves every violation while
	// keeping idle states from being carried forward level after level.
	DisableStutterElim bool
	// Metrics, if non-nil, receives the exploration's engine counters
	// (states, edges, sleep-set skips, stutter prunes, duplicate-target
	// merge hits) and per-level frontier width/depth. All updates are
	// sums and histogram increments, so the dump is deterministic.
	Metrics *obs.Registry
}

// Counterexample is a schedule reaching a violating state.
type Counterexample struct {
	Path []Choice
	Err  string // the Property error at the violating state
}

// Result summarizes an exploration.
type Result struct {
	// States counts unique visited states, including the initial one.
	States int64
	// Edges counts executed transitions (after sleep-set skipping).
	Edges int64
	// Slept counts enabled transitions skipped by the sleep-set reduction.
	Slept int64
	// Stutters counts transitions pruned by stutter elimination.
	Stutters int64
	// Dups counts executed transitions whose target was already visited.
	Dups int64
	// Depth is the deepest visited level.
	Depth int
	// Truncated reports that the frontier was still nonempty when the
	// exploration stopped (bound reached or StopAtViolation fired).
	Truncated bool
	// Violations counts visited states whose Property check failed.
	Violations int64
	// Counterexample is the lexicographically least schedule to a
	// shallowest violating state, or nil.
	Counterexample *Counterexample
	// SchedulePrefixes is the number of schedule prefixes a naive
	// enumerator (no state merging) would visit to cover the explored
	// edges — a lower bound on the naive tree size, computed by dynamic
	// programming over the level DAG.
	SchedulePrefixes float64
	// Reduction is SchedulePrefixes / States: how many naive enumeration
	// visits each unique state stands for.
	Reduction float64
}

// node is one unique state of the level DAG. cfg, procH and sleep are
// dropped once the level has been expanded; key, parent and via stay for
// counterexample path reconstruction.
type node struct {
	key    Key
	cfg    *model.Configuration
	procH  []uint64
	sleep  []Choice
	parent int32 // index into the previous level; -1 at the root
	via    Choice
	viol   string
}

// edgeRec is one executed transition produced by the expansion pass.
type edgeRec struct {
	parent int32
	via    Choice
	key    Key
	sleep  []Choice // sleep-set contribution for the child
	viol   string
}

type engine struct {
	o   Options
	n   int
	enc encCache
	// invariantFrom[t] reports that the failure pattern and the adversary
	// menu are constant on [t, Bound] — the precondition for stutter
	// elimination at time t.
	invariantFrom []bool

	states, edges, slept, dups, violations, stutters int64
}

// Explore runs the bounded exploration described by o.
func Explore(o Options) (*Result, error) {
	if o.Automaton == nil || o.Pattern == nil || o.Menu == nil {
		return nil, fmt.Errorf("explore: Automaton, Pattern and Menu are all required")
	}
	if o.Bound <= 0 {
		return nil, fmt.Errorf("explore: Bound must be positive, got %d", o.Bound)
	}
	if o.Pattern.N() != o.Automaton.N() {
		return nil, fmt.Errorf("explore: pattern is for n=%d but automaton has n=%d", o.Pattern.N(), o.Automaton.N())
	}
	e := &engine{o: o, n: o.Automaton.N(), enc: encCache{}}
	e.invariantFrom = e.computeInvariantSuffix(o.Bound)

	cfg0 := model.InitialConfiguration(o.Automaton)
	procH := make([]uint64, e.n)
	for p := range procH {
		procH[p] = hash64(canonicalString(cfg0.States[p]))
	}
	root := node{cfg: cfg0, procH: procH, parent: -1, key: stateKey(cfg0, 0, procH, e.enc)}
	root.viol = e.check(cfg0)
	e.states = 1
	if root.viol != "" {
		e.violations = 1
	}

	levels := [][]node{{root}}
	var edgePairs [][][2]int32 // per level: executed (parent, child) pairs in canonical order
	var cex *Counterexample
	if root.viol != "" {
		cex = &Counterexample{Err: root.viol}
	}
	truncated := false

	for depth := 0; depth < o.Bound; depth++ {
		if cex != nil && o.StopAtViolation {
			truncated = len(levels[depth]) > 0
			break
		}
		cur := levels[depth]
		if len(cur) == 0 {
			break
		}
		t := model.Time(depth + 1) // sim convention: step i executes at time i+1
		alive := o.Pattern.Alive(t)
		if alive.IsEmpty() {
			break
		}
		stable := e.menuStability(t)
		e.enc = encCache{} // scope message-encoding memoization to this level
		edges := e.expandLevel(cur, depth, t, alive, stable)
		next, pairs := e.merge(edges)
		e.materialize(cur, next, t)
		for i := range cur { // frontier configs are no longer needed
			cur[i].cfg, cur[i].procH, cur[i].sleep = nil, nil, nil
		}
		levels = append(levels, next)
		edgePairs = append(edgePairs, pairs)
		o.Metrics.Histogram("explore.frontier_width", obs.DefaultBuckets).Observe(int64(len(next)))
		if o.Progress != nil {
			o.Progress(depth+1, len(next), e.states)
		}
		if cex == nil {
			for i := range next {
				if next[i].viol != "" {
					cex = &Counterexample{
						Path: reconstructPath(levels, depth+1, int32(i)),
						Err:  next[i].viol,
					}
					break
				}
			}
		}
		if depth+1 == o.Bound {
			truncated = len(next) > 0
		}
	}

	res := &Result{
		States:         e.states,
		Edges:          e.edges,
		Slept:          e.slept,
		Stutters:       e.stutters,
		Dups:           e.dups,
		Depth:          len(levels) - 1,
		Truncated:      truncated,
		Violations:     e.violations,
		Counterexample: cex,
	}
	res.SchedulePrefixes = schedulePrefixes(levels, edgePairs)
	if e.states > 0 {
		res.Reduction = res.SchedulePrefixes / float64(e.states)
	}
	o.Metrics.Counter("explore.states").Add(res.States)
	o.Metrics.Counter("explore.edges").Add(res.Edges)
	o.Metrics.Counter("explore.sleep_skips").Add(res.Slept)
	o.Metrics.Counter("explore.stutter_prunes").Add(res.Stutters)
	o.Metrics.Counter("explore.merge_hits").Add(res.Dups)
	o.Metrics.Counter("explore.violations").Add(res.Violations)
	o.Metrics.Gauge("explore.depth").Max(int64(res.Depth))
	return res, nil
}

// check evaluates the property, returning "" when it holds.
func (e *engine) check(c *model.Configuration) string {
	if e.o.Property == nil {
		return ""
	}
	if err := e.o.Property(c); err != nil {
		return err.Error()
	}
	return ""
}

// computeInvariantSuffix returns, indexed by time t in [1, bound], whether
// the failure pattern and the adversary menu are constant on [t, bound].
func (e *engine) computeInvariantSuffix(bound int) []bool {
	inv := make([]bool, bound+1)
	if bound >= 1 {
		inv[bound] = true
	}
	for t := bound - 1; t >= 1; t-- {
		tt := model.Time(t)
		if e.o.Pattern.Alive(tt) != e.o.Pattern.Alive(tt+1) {
			continue
		}
		stable := e.menuStability(tt)
		all := true
		for _, s := range stable {
			all = all && s
		}
		inv[t] = all && inv[t+1]
	}
	return inv
}

// menuStability reports, per process, whether the adversary menu is
// unchanged between t and t+1 (canonical encodings compared entry-wise).
// Stability is what lets a sleeping transition keep denoting the same FD
// value one level deeper — see independent.
func (e *engine) menuStability(t model.Time) []bool {
	stable := make([]bool, e.n)
	for p := 0; p < e.n; p++ {
		a := e.o.Menu.Values(model.ProcessID(p), t)
		b := e.o.Menu.Values(model.ProcessID(p), t+1)
		if len(a) != len(b) {
			continue
		}
		ok := true
		for i := range a {
			if canonicalString(a[i]) != canonicalString(b[i]) {
				ok = false
				break
			}
		}
		stable[p] = ok
	}
	return stable
}

// independent reports whether transitions x and a commute at a state of
// depth t-1 (both about to execute at time t, the second at t+1). The
// relation is conservative:
//   - distinct processes (a process's two steps never commute);
//   - both processes alive at t and t+1 (swapping must not cross a crash);
//   - both menus stable across t/t+1 (the FD value a choice denotes must
//     not depend on which of the two slots it lands in).
//
// Per-link FIFO delivery does the rest: steps of distinct processes touch
// disjoint local states, a delivery drains a link only its own process
// reads, and sends append to link tails without moving any head that a
// concurrently enabled delivery could observe.
func (e *engine) independent(x, a Choice, t model.Time, stable []bool) bool {
	if x.P == a.P {
		return false
	}
	alive2 := e.o.Pattern.Alive(t + 1)
	if !alive2.Has(x.P) || !alive2.Has(a.P) {
		return false
	}
	return stable[x.P] && stable[a.P]
}

// enabled returns the transitions enabled at cfg for steps at time t, in
// canonical (P, From, FD) order.
func (e *engine) enabled(cfg *model.Configuration, t model.Time, alive model.ProcessSet) []Choice {
	var out []Choice
	for p := 0; p < e.n; p++ {
		pid := model.ProcessID(p)
		if !alive.Has(pid) {
			continue
		}
		nvals := len(e.o.Menu.Values(pid, t))
		for f := 0; f < nvals; f++ {
			out = append(out, Choice{P: pid, From: model.NoProcess, FD: f})
		}
		for from := 0; from < e.n; from++ {
			if cfg.Buffer.OldestFrom(pid, model.ProcessID(from)) == nil {
				continue
			}
			for f := 0; f < nvals; f++ {
				out = append(out, Choice{P: pid, From: model.ProcessID(from), FD: f})
			}
		}
	}
	return out
}

// apply executes choice ch (a step at time t) on a fork of cfg and returns
// the child configuration plus its per-process state hashes. The fork
// clones what the step writes — the stepping process's state and the
// buffer — and shares every other state with cfg. That is sound because
// this is the only place an explored state is ever stepped: a state
// reachable from a frontier node is never mutated, only forked again.
func (e *engine) apply(cfg *model.Configuration, procH []uint64, ch Choice, t model.Time) (*model.Configuration, []uint64, int) {
	child := &model.Configuration{States: append([]model.State(nil), cfg.States...), Buffer: cfg.Buffer.Clone()}
	child.States[ch.P] = cfg.States[ch.P].CloneState()
	var m *model.Message
	if ch.From != model.NoProcess {
		m = child.Buffer.OldestFrom(ch.P, ch.From)
		if m == nil {
			panic(fmt.Sprintf("explore: internal error: delivery %v scheduled on an empty link", ch))
		}
		if _, superseded := m.Payload.(model.SupersededPayload); superseded {
			panic(fmt.Sprintf("explore: superseded payload %T is not supported (collapsing delivery would break per-link enumeration)", m.Payload))
		}
	}
	d := e.o.Menu.Values(ch.P, t)[ch.FD]
	sent := child.Apply(e.o.Automaton, model.Step{P: ch.P, M: m, D: d})
	h := make([]uint64, e.n)
	copy(h, procH)
	h[ch.P] = hash64(canonicalString(child.States[ch.P]))
	return child, h, len(sent)
}

// expandNode runs the sleep-set expansion of one frontier state: enabled
// transitions in canonical order, skipping those in the state's sleep set,
// and computing each executed edge's sleep contribution for its child
// (Godefroid's explore(s, Sleep) with the intersection deferred to merge).
func (e *engine) expandNode(nd *node, idx int32, t model.Time, alive model.ProcessSet, stable []bool, depth int) ([]edgeRec, int64, int64) {
	en := e.enabled(nd.cfg, t, alive)
	var slept, stutters int64
	var done []Choice
	out := make([]edgeRec, 0, len(en))
	for _, a := range en {
		if !e.o.DisablePOR && containsChoice(nd.sleep, a) {
			slept++
			continue
		}
		var contrib []Choice
		if !e.o.DisablePOR {
			for _, x := range nd.sleep {
				if e.independent(x, a, t, stable) {
					contrib = append(contrib, x)
				}
			}
			for _, x := range done {
				if e.independent(x, a, t, stable) {
					contrib = append(contrib, x)
				}
			}
			sort.Slice(contrib, func(i, j int) bool { return choiceLess(contrib[i], contrib[j]) })
		}
		child, procH, sent := e.apply(nd.cfg, nd.procH, a, t)
		if !e.o.DisableStutterElim && a.From == model.NoProcess && sent == 0 &&
			procH[a.P] == nd.procH[a.P] && e.invariantFrom[int(t)] {
			// Pure stutter in a time-invariant suffix: prune, and keep it out
			// of done so no sibling's sleep set is ever justified by it.
			stutters++
			continue
		}
		if !e.o.DisablePOR {
			done = append(done, a)
		}
		out = append(out, edgeRec{
			parent: idx,
			via:    a,
			key:    stateKey(child, depth+1, procH, e.enc),
			sleep:  contrib,
			viol:   e.check(child),
		})
	}
	return out, slept, stutters
}

// expandLevel runs pass 1 over a frontier: every state is expanded in
// frontier order, child configurations are fingerprinted and dropped. The
// edges come out sorted by (parent, choice).
func (e *engine) expandLevel(cur []node, depth int, t model.Time, alive model.ProcessSet, stable []bool) []edgeRec {
	var all []edgeRec
	for i := range cur {
		edges, slept, stutters := e.expandNode(&cur[i], int32(i), t, alive, stable, depth)
		all = append(all, edges...)
		e.slept += slept
		e.stutters += stutters
	}
	return all
}

// merge deduplicates pass-1 edges into the next frontier. Edges arrive
// sorted by (parent, choice); since frontier states are themselves stored
// in lex-least-path order, the first edge to reach a key is the lex-least
// path to that state, and it becomes the state's parent pointer. Later
// edges to the same key only intersect sleep sets (a state reached twice
// may only sleep what every arrival agrees to sleep).
func (e *engine) merge(edges []edgeRec) ([]node, [][2]int32) {
	var next []node
	idx := make(map[Key]int32)
	pairs := make([][2]int32, 0, len(edges))
	for i := range edges {
		ed := &edges[i]
		e.edges++
		ci, seen := idx[ed.key]
		if !seen {
			ci = int32(len(next))
			idx[ed.key] = ci
			next = append(next, node{key: ed.key, parent: ed.parent, via: ed.via, sleep: ed.sleep, viol: ed.viol})
			e.states++
			if ed.viol != "" {
				e.violations++
			}
		} else {
			e.dups++
			next[ci].sleep = intersectChoices(next[ci].sleep, ed.sleep)
		}
		pairs = append(pairs, [2]int32{ed.parent, ci})
	}
	return next, pairs
}

// materialize is pass 2: rebuild the configuration of every unique child
// from its lex-least parent. Re-executing one step per unique state costs
// less than holding a configuration per edge through merge.
func (e *engine) materialize(cur, next []node, t model.Time) {
	for i := range next {
		p := &cur[next[i].parent]
		next[i].cfg, next[i].procH, _ = e.apply(p.cfg, p.procH, next[i].via, t)
	}
}

// reconstructPath walks parent pointers from levels[depth][i] back to the
// root, returning the choices in execution order.
func reconstructPath(levels [][]node, depth int, i int32) []Choice {
	path := make([]Choice, depth)
	for d := depth; d > 0; d-- {
		nd := &levels[d][i]
		path[d-1] = nd.via
		i = nd.parent
	}
	return path
}

// schedulePrefixes counts, by backward DP over the level DAG, how many
// schedule prefixes a naive enumerator (a tree walk with no state
// merging) would visit to cover the explored edges: prefixes(s) = 1 +
// Σ_{s→c} prefixes(c). Summation follows the canonical edge order, so the
// float result is bit-identical across runs.
func schedulePrefixes(levels [][]node, edgePairs [][][2]int32) float64 {
	if len(levels) == 0 {
		return 0
	}
	paths := make([]float64, len(levels[len(levels)-1]))
	for i := range paths {
		paths[i] = 1
	}
	for d := len(levels) - 2; d >= 0; d-- {
		cur := make([]float64, len(levels[d]))
		for i := range cur {
			cur[i] = 1
		}
		for _, pr := range edgePairs[d] {
			cur[pr[0]] += paths[pr[1]]
		}
		paths = cur
	}
	return paths[0]
}

// containsChoice reports membership in a sorted choice slice.
func containsChoice(s []Choice, c Choice) bool {
	i := sort.Search(len(s), func(i int) bool { return !choiceLess(s[i], c) })
	return i < len(s) && s[i] == c
}

// intersectChoices intersects two sorted choice slices.
func intersectChoices(a, b []Choice) []Choice {
	var out []Choice
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case choiceLess(a[i], b[j]):
			i++
		default:
			j++
		}
	}
	return out
}
