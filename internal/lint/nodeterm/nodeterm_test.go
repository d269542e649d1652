package nodeterm_test

import (
	"os"
	"path/filepath"
	"testing"

	"nuconsensus/internal/lint/analysistest"
	"nuconsensus/internal/lint/nodeterm"
)

func TestNodeterm(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), nodeterm.Analyzer,
		"internal/model", "internal/check")
}

// TestObsWall runs the obs.Wall rule's fixture: every form of reference
// to the wall-clock shim is flagged in a critical package (internal/sim)
// and none in an exempt one (internal/check).
func TestObsWall(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), nodeterm.Analyzer,
		"internal/sim", "internal/check")
}

// TestClassificationMatchesLayout is the meta-test: every package under
// internal/ must be classified as determinism-critical or explicitly
// exempt (with a reason), and both lists must only name packages that
// exist — so adding a package without deciding its determinism story
// fails the build.
func TestClassificationMatchesLayout(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	internalDir := filepath.Dir(filepath.Dir(wd)) // …/internal/lint/nodeterm -> …/internal
	if filepath.Base(internalDir) != "internal" {
		t.Fatalf("expected to run from internal/lint/nodeterm, got %s", wd)
	}

	critical := make(map[string]bool, len(nodeterm.CriticalPackages))
	for _, p := range nodeterm.CriticalPackages {
		critical[p] = true
	}
	if len(critical) != len(nodeterm.CriticalPackages) {
		t.Errorf("CriticalPackages contains duplicates: %v", nodeterm.CriticalPackages)
	}

	entries, err := os.ReadDir(internalDir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := "internal/" + e.Name()
		onDisk[pkg] = true
		reason, exempt := nodeterm.ExemptPackages[pkg]
		switch {
		case critical[pkg] && exempt:
			t.Errorf("%s is listed both as critical and as exempt (%q)", pkg, reason)
		case !critical[pkg] && !exempt:
			t.Errorf("%s is not classified: add it to nodeterm.CriticalPackages or, with a reason, to nodeterm.ExemptPackages", pkg)
		}
	}
	for _, pkg := range nodeterm.CriticalPackages {
		if !onDisk[pkg] {
			t.Errorf("CriticalPackages names %s, which does not exist under %s", pkg, internalDir)
		}
	}
	for pkg := range nodeterm.ExemptPackages {
		if !onDisk[pkg] {
			t.Errorf("ExemptPackages names %s, which does not exist under %s", pkg, internalDir)
		}
	}
}

// TestExploreStaysCritical pins the classification of the bounded model
// checker: internal/explore promises byte-identical results at any
// -parallel value, which only holds while its code is barred from
// wall-clock reads, ambient randomness and unsanctioned goroutines.
func TestExploreStaysCritical(t *testing.T) {
	if !nodeterm.Critical("nuconsensus/internal/explore") {
		t.Error("internal/explore must stay determinism-critical: the explorer's results are promised byte-identical at any worker count")
	}
}

// TestServeStaysCritical pins the classification of the serving layer:
// internal/serve is shared verbatim between E18's deterministic sim runs
// (whose tables must be byte-identical at any worker count) and cmd/nucd's
// real TCP path, so wall time, ambient randomness and goroutines must stay
// out of it — the nondeterministic half (batch flush timers, connection
// goroutines) lives in cmd/nucd, which nodeterm does not cover.
func TestServeStaysCritical(t *testing.T) {
	if !nodeterm.Critical("nuconsensus/internal/serve") {
		t.Error("internal/serve must stay determinism-critical: it is shared by E18's sim runs and cmd/nucd")
	}
}

// TestSubstrateStaysExempt pins the classification of the substrate layer:
// internal/substrate hosts the shared concurrent cluster driver, whose
// timing sites (yield sleeps, delay timers, goroutine spawns) are
// sanctioned — while internal/sim, the deterministic backend, must stay on
// the critical list so the regenerated tables remain byte-identical.
// TestObsStaysExempt pins the classification of the observability layer:
// internal/obs deliberately owns the repo's wall-clock shim (obs.Wall) and
// the debug server (ServeDebug), so it cannot live on the critical list —
// but the deterministic event pipeline stays safe because nodeterm's
// obs.Wall rule bars every critical package from referencing obs.Wall.
func TestObsStaysExempt(t *testing.T) {
	if reason := nodeterm.ExemptPackages["internal/obs"]; reason == "" {
		t.Error("internal/obs must be exempt (it hosts the sanctioned Wall clock shim and debug server)")
	}
	if nodeterm.Critical("nuconsensus/internal/obs") {
		t.Error("internal/obs must not be determinism-critical")
	}
}

// TestHostsStayUncovered pins the tracing split of DESIGN.md §12: the
// span-emitting hosts (cmd/nucd stamping wall time on server spans,
// cmd/nucload on client spans, cmd/nuctrace reading both) are process
// entry points outside internal/, so nodeterm must never classify them as
// critical — while internal/serve, which emits inject/decide/apply spans
// through the injected tracer, stays on the critical list (pinned above),
// which is what keeps span emission logical-time-only inside the core.
// internal/rsm emits through the same injected tracer and must at least
// stay classified (it is exempt with a reason, covered by its own
// seeded-simulator tests).
func TestHostsStayUncovered(t *testing.T) {
	for _, pkg := range []string{"nuconsensus/cmd/nucd", "nuconsensus/cmd/nucload", "nuconsensus/cmd/nuctrace"} {
		if nodeterm.Critical(pkg) {
			t.Errorf("%s is a host binary and must not be determinism-critical (it owns the wall-clock tracer)", pkg)
		}
	}
	if !nodeterm.Critical("nuconsensus/internal/rsm") && nodeterm.ExemptPackages["internal/rsm"] == "" {
		t.Error("internal/rsm emits spans through the injected tracer and must stay classified (critical, or exempt with a reason)")
	}
}

func TestSubstrateStaysExempt(t *testing.T) {
	if reason := nodeterm.ExemptPackages["internal/substrate"]; reason == "" {
		t.Error("internal/substrate must be exempt (it is the home of the sanctioned concurrent cluster driver)")
	}
	if !nodeterm.Critical("nuconsensus/internal/sim") {
		t.Error("internal/sim must stay determinism-critical: it is the deterministic substrate backend")
	}
	if nodeterm.Critical("nuconsensus/internal/substrate") {
		t.Error("internal/substrate must not be determinism-critical")
	}
}
