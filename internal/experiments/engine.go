package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nuconsensus/internal/obs"
)

// This file is the parallel experiment engine. Every experiment is declared
// as a Spec: a table header, a canonical list of Configs (one per unit of
// work, typically one per (parameter point, seed) pair), a Unit function
// that runs one config, and a reduction from grouped unit results to table
// rows. The engine fans units out across a worker pool — across experiments
// and across the per-seed configurations inside each experiment — and then
// reduces results in config order, so the rendered tables are bitwise
// identical regardless of worker count or scheduling interleavings.

// Config identifies one unit of experiment work: a parameter point
// (label, n, f, arg) plus the logical seed index. The zero value of a field
// means "unused" for that experiment.
type Config struct {
	Label string // algorithm / strategy / combo discriminator ("" when unused)
	N     int    // system size
	F     int    // number of failures
	Arg   int    // extra integer parameter (adversary period, row index, …)
	Seed  int64  // 1-based logical seed; 0 for seedless (deterministic) units
}

// key is the row-grouping identity of a config: everything but the seed.
// Units whose configs share a key are reduced into the same table row.
func (c Config) key() Config { c.Seed = 0; return c }

// String names the unit in failure notes.
func (c Config) String() string {
	s := fmt.Sprintf("n=%d f=%d seed=%d", c.N, c.F, c.Seed)
	if c.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", c.Arg)
	}
	if c.Label != "" {
		s = c.Label + " " + s
	}
	return s
}

// DeriveSeed maps one (experiment, config, seed) unit to the seed of its
// private RNG stream: FNV-1a over the full tuple. The derivation is pure,
// so any worker can run any unit and draw exactly the random values the
// sequential order would have drawn — this is what makes parallel output
// bitwise identical to sequential output.
func DeriveSeed(id string, cfg Config) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d", id, cfg.Label, cfg.N, cfg.F, cfg.Arg, cfg.Seed)
	return int64(h.Sum64() & (1<<63 - 1))
}

// UnitResult is what one unit reports back to the engine.
type UnitResult struct {
	Cfg     Config
	OK      bool           // the unit supported the claim
	Fail    bool           // the unit refuted the claim (fails the table)
	Notes   []string       // appended to the table's notes, in config order
	Metrics map[string]int // summed across the row's units
	Cells   []string       // verbatim row cells, rendered by unitRow

	elapsed time.Duration // filled by the engine
	events  []obs.Event   // the unit's causal event stream (Options.EventSinks)
}

// Add accumulates a named metric on the unit.
func (u *UnitResult) Add(k string, v int) {
	if u.Metrics == nil {
		u.Metrics = make(map[string]int)
	}
	u.Metrics[k] += v
}

// Notef appends a formatted note.
func (u *UnitResult) Notef(format string, args ...any) {
	u.Notes = append(u.Notes, fmt.Sprintf(format, args...))
}

// failf marks the unit as refuting the claim, with a note.
func (u *UnitResult) failf(format string, args ...any) {
	u.Fail = true
	u.Notef(format, args...)
}

// Group is the ordered slice of unit results sharing one row configuration.
type Group struct {
	Key   Config
	Units []UnitResult
}

// Runs counts the group's units.
func (g Group) Runs() int { return len(g.Units) }

// OKs counts the units that supported the claim.
func (g Group) OKs() int {
	n := 0
	for _, u := range g.Units {
		if u.OK {
			n++
		}
	}
	return n
}

// Sum totals a named metric across the group.
func (g Group) Sum(k string) int {
	s := 0
	for _, u := range g.Units {
		s += u.Metrics[k]
	}
	return s
}

// Avg formats Sum(k)/Runs() as a table cell.
func (g Group) Avg(k string) string { return avg(g.Sum(k), g.Runs()) }

// AvgOverOK formats Sum(k)/OKs() as a table cell.
func (g Group) AvgOverOK(k string) string { return avg(g.Sum(k), g.OKs()) }

// Spec declares one experiment: its table header, the configurations to fan
// out, the per-unit body, and how grouped unit results reduce to rows. This
// is the shared runConfigs substrate that replaces the hand-rolled
// seed/config loops the experiments used to carry individually.
type Spec struct {
	ID, Title, Claim string
	Columns          []string

	// Portable marks the experiment as substrate-portable: every execution
	// its Unit performs goes through runConsensus, so it runs unchanged
	// with Scale.Substrate set to a concurrent backend. Non-portable specs
	// depend on sim-only machinery (scripted and partially synchronous
	// schedulers, kept schedules, step-exact replay) and refuse to run on a
	// non-sim substrate.
	Portable bool

	// Configs enumerates the units at a given scale, in canonical row
	// order. Consecutive configs with equal key() form one row group.
	Configs func(sc Scale) []Config

	// Unit runs one configuration. rng is the unit's private deterministic
	// stream (seeded with DeriveSeed); histories and schedulers that take a
	// seed directly should keep using cfg.Seed so runs stay reproducible
	// one experiment at a time.
	Unit func(sc Scale, cfg Config, rng *rand.Rand) UnitResult

	// Row renders one group as table cells; it is the only source of
	// rows. A nil row is skipped (unitRow of a unit that failed before it
	// had anything to show).
	Row func(sc Scale, g Group) []string

	// Finalize optionally judges the assembled table: cross-row pass
	// predicates and trailing notes. It adds no rows.
	Finalize func(sc Scale, t *Table, gs []Group)
}

// Run executes the spec synchronously on the calling goroutine, unit by
// unit in canonical order. It is the Workers=1 path of the engine.
func (sp *Spec) Run(sc Scale) Table {
	if err := sp.checkSubstrate(sc); err != nil {
		return Table{ID: sp.ID, Title: sp.Title, Claim: sp.Claim, Columns: sp.Columns, Pass: false, Notes: []string{err.Error()}}
	}
	configs := sp.Configs(sc)
	units := make([]UnitResult, len(configs))
	for i, cfg := range configs {
		units[i] = sp.runUnit(sc, cfg, sc.Metrics, false)
	}
	return sp.reduce(sc, configs, units)
}

// runUnit executes one unit with its derived RNG stream and times it.
// The wall-clock reads are sanctioned: elapsed time feeds the Elapsed /
// RowTimes / UnitTimes diagnostics, which Table.Render deliberately
// excludes so the rendered tables stay byte-identical across runs.
//
// With collectEvents on, the unit runs against its own event bus: one bus
// per unit keeps the Lamport clocks and event ordering independent of
// which worker ran it, so the streams can later be written in canonical
// config order byte-identically at any worker count. metrics may be
// shared across units — it accumulates only commutative quantities.
func (sp *Spec) runUnit(sc Scale, cfg Config, metrics *obs.Registry, collectEvents bool) UnitResult {
	var all *obs.Collector
	sc.Metrics = metrics
	if collectEvents {
		all = obs.NewCollector(obs.AllKinds()...)
		sc.Bus = obs.NewBus(nil, metrics, all)
	}
	rng := rand.New(rand.NewSource(DeriveSeed(sp.ID, cfg)))
	start := time.Now() //lint:allow nodeterm timing is diagnostic-only, never rendered
	u := sp.Unit(sc, cfg, rng)
	u.Cfg = cfg
	u.elapsed = time.Since(start) //lint:allow nodeterm timing is diagnostic-only, never rendered
	if all != nil {
		u.events = all.Events()
	}
	return u
}

// checkSubstrate rejects non-portable specs on non-sim substrates.
func (sp *Spec) checkSubstrate(sc Scale) error {
	if !sp.Portable && sc.SubstrateName() != "sim" {
		return fmt.Errorf("experiments: %s is not substrate-portable; run it with -substrate sim", sp.ID)
	}
	return nil
}

// reduce assembles the final table from per-unit results in config order,
// independent of the order the units actually ran in.
func (sp *Spec) reduce(sc Scale, configs []Config, units []UnitResult) Table {
	t := Table{ID: sp.ID, Title: sp.Title, Claim: sp.Claim, Columns: sp.Columns, Pass: true}
	var gs []Group
	for i, u := range units {
		key := configs[i].key()
		if len(gs) == 0 || gs[len(gs)-1].Key != key {
			gs = append(gs, Group{Key: key})
		}
		gs[len(gs)-1].Units = append(gs[len(gs)-1].Units, u)
		if u.Fail {
			t.Pass = false
		}
		t.Notes = append(t.Notes, u.Notes...)
		t.Elapsed += u.elapsed
		t.UnitTimes = append(t.UnitTimes, u.elapsed)
	}
	for _, g := range gs {
		var rowTime time.Duration
		for _, u := range g.Units {
			rowTime += u.elapsed
		}
		if row := sp.Row(sc, g); row != nil {
			t.AddRow(row...)
			t.RowTimes = append(t.RowTimes, rowTime)
		}
	}
	if sp.Finalize != nil {
		sp.Finalize(sc, &t, gs)
	}
	return t
}

// Options configures the parallel engine.
type Options struct {
	// Workers is the worker-pool size; <= 0 means runtime.NumCPU().
	Workers int

	// EventSinks, when non-empty, receive every unit's causal event
	// stream. Units collect events on private buses while the pool runs;
	// the engine replays them into the sinks in canonical (experiment,
	// config) order after the pool drains, so exported logs are
	// byte-identical at any worker count. The caller closes the sinks.
	EventSinks []obs.Sink

	// Metrics, if non-nil, receives the run's counters and histograms
	// (commutative only, so its dump is also worker-count-independent).
	Metrics *obs.Registry
}

// RunIDs runs the selected experiments on a worker pool and returns the
// tables in the order of ids; the output is bitwise identical for every
// worker count. Units from all experiments share one queue, so a long tail
// in one experiment overlaps with the others. Cancelling ctx stops feeding
// the pool and returns ctx.Err() once in-flight units finish.
func RunIDs(ctx context.Context, ids []string, sc Scale, opts Options) ([]Table, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	specs := make([]*Spec, len(ids))
	for i, id := range ids {
		sp, ok := Registry[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		if err := sp.checkSubstrate(sc); err != nil {
			return nil, err
		}
		specs[i] = sp
	}

	type task struct{ spec, unit int }
	configs := make([][]Config, len(specs))
	units := make([][]UnitResult, len(specs))
	var tasks []task
	for i, sp := range specs {
		configs[i] = sp.Configs(sc)
		units[i] = make([]UnitResult, len(configs[i]))
		for j := range configs[i] {
			tasks = append(tasks, task{i, j})
		}
	}

	collectEvents := len(opts.EventSinks) > 0
	queue := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow nodeterm this IS the sanctioned engine worker pool
		go func() {
			defer wg.Done()
			for tk := range queue {
				units[tk.spec][tk.unit] = specs[tk.spec].runUnit(sc, configs[tk.spec][tk.unit], opts.Metrics, collectEvents)
			}
		}()
	}
	var err error
feed:
	for _, tk := range tasks {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		case queue <- tk:
		}
	}
	close(queue)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Replay the units' event streams into the sinks in canonical task
	// order — the same order a single worker would have produced them in.
	if collectEvents {
		for _, tk := range tasks {
			for _, ev := range units[tk.spec][tk.unit].events {
				for _, s := range opts.EventSinks {
					s.Emit(ev)
				}
			}
		}
	}

	tables := make([]Table, len(specs))
	for i, sp := range specs {
		tables[i] = sp.reduce(sc, configs[i], units[i])
	}
	return tables, nil
}

// unitRow is the Row of the specs whose every group is one unit (E7, E9,
// E10, E16, Q3): that unit's own Cells.
func unitRow(_ Scale, g Group) []string { return g.Units[0].Cells }

// seedRange enumerates configs seed-by-seed for one parameter point: the
// common helper the per-experiment Configs functions build their grids on.
func seedRange(base Config, seeds int) []Config {
	out := make([]Config, 0, seeds)
	for s := int64(1); s <= int64(seeds); s++ {
		c := base
		c.Seed = s
		out = append(out, c)
	}
	return out
}

// grid enumerates seeds configs per (n, f) point, n over ns and f over
// fs(n), in row order; base carries any label and arg.
func grid(base Config, seeds int, ns []int, fs func(n int) []int) []Config {
	var cfgs []Config
	for _, n := range ns {
		for _, f := range fs(n) {
			base.N, base.F = n, f
			cfgs = append(cfgs, seedRange(base, seeds)...)
		}
	}
	return cfgs
}

// nfRow opens a grid row with the n, f, runs and ok columns.
func nfRow(g Group, cells ...string) []string {
	return append([]string{itoa(g.Key.N), itoa(g.Key.F), itoa(g.Runs()), itoa(g.OKs())}, cells...)
}
