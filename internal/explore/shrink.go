package explore

import (
	"nuconsensus/internal/model"
)

// Execute runs a schedule against o's automaton, pattern and menu and
// returns the final configuration. The semantics deliberately mirror
// sim.ScriptedScheduler, so a schedule that violates here also violates
// when replayed through the ordinary Replay path:
//   - an entry for a process that is crashed at the current time is
//     skipped without consuming a tick;
//   - a delivery whose link is empty degrades to λ;
//   - an FD index outside the menu (possible mid-shrink, when deleting
//     entries shifts later entries to times with different menus) makes
//     the schedule invalid: ok is false and cfg is nil.
func Execute(o Options, path []Choice) (cfg *model.Configuration, ok bool) {
	cfg, _ = execute(o, path, nil)
	return cfg, cfg != nil
}

// execute is Execute's one loop. With stop set, it ends after the first
// executed entry whose configuration stop holds for and returns that
// entry's index; otherwise the index is len(path). An FD index outside the
// menu returns a nil configuration.
func execute(o Options, path []Choice, stop func(*model.Configuration) bool) (*model.Configuration, int) {
	cfg := model.InitialConfiguration(o.Automaton)
	executed := 0
	for i, ch := range path {
		t := model.Time(executed + 1)
		if !o.Pattern.Alive(t).Has(ch.P) {
			continue
		}
		vs := o.Menu.Values(ch.P, t)
		if ch.FD < 0 || ch.FD >= len(vs) {
			return nil, len(path)
		}
		var m *model.Message
		if ch.From != model.NoProcess {
			m = cfg.Buffer.OldestFrom(ch.P, ch.From)
		}
		cfg.Apply(o.Automaton, model.Step{P: ch.P, M: m, D: vs[ch.FD]})
		executed++
		if stop != nil && stop(cfg) {
			return cfg, i
		}
	}
	return cfg, len(path)
}

// violates reports whether executing path reaches a state where o.Property
// fails. Safety properties are stable (decisions are irrevocable), so
// checking only the final configuration is sound.
func violates(o Options, path []Choice) bool {
	if o.Property == nil {
		return false
	}
	cfg, ok := Execute(o, path)
	return ok && o.Property(cfg) != nil
}

// Shrink reduces a violating schedule to a locally minimal one that still
// violates o.Property: no single entry can be removed and no adjacent
// swap yields a lexicographically smaller schedule that still violates.
// The pipeline is truncation to the first violating prefix, ddmin-style
// chunk deletion, single-entry deletion, then adjacent-swap
// canonicalization to a fixpoint. Everything is deterministic; Shrink
// panics if the input schedule does not violate.
func Shrink(o Options, path []Choice) []Choice {
	if !violates(o, path) {
		panic("explore: Shrink called on a non-violating schedule")
	}
	cur := truncateToViolation(o, path)

	// ddmin: try deleting chunks, halving the chunk size. Restart from the
	// large chunk size after any successful deletion — later deletions can
	// re-enable earlier ones.
	for size := len(cur) / 2; size >= 1; size /= 2 {
		removed := false
		for start := 0; start+size <= len(cur); {
			cand := append(append([]Choice(nil), cur[:start]...), cur[start+size:]...)
			if violates(o, cand) {
				cur = truncateToViolation(o, cand)
				removed = true
				// do not advance: the next chunk now starts here
			} else {
				start++
			}
		}
		if removed {
			size = len(cur) // restart: /=2 brings it to len/2
		}
	}

	// Adjacent-swap canonicalization: bubble toward the lexicographically
	// least violating schedule of this length.
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(cur); i++ {
			if !choiceLess(cur[i+1], cur[i]) {
				continue
			}
			cand := append([]Choice(nil), cur...)
			cand[i], cand[i+1] = cand[i+1], cand[i]
			if violates(o, cand) {
				cur = cand
				changed = true
			}
		}
	}
	return cur
}

// truncateToViolation cuts path at the first prefix whose final state
// violates. The caller guarantees the full path violates.
func truncateToViolation(o Options, path []Choice) []Choice {
	_, at := execute(o, path, func(c *model.Configuration) bool { return o.Property(c) != nil })
	return append([]Choice(nil), path[:min(at+1, len(path))]...)
}
