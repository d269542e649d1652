// Package nodeterm implements the `nodeterm` analyzer: in the
// determinism-critical packages of this repo, every run must be a pure
// function of its declared seeds, or the regenerated experiment tables
// (EXPERIMENTS.md) stop being byte-identical across runs and worker
// counts. The analyzer forbids, in those packages:
//
//   - wall-clock reads and timers (time.Now, time.Since, time.After, …)
//   - the global math/rand and math/rand/v2 sources (rand.Intn, rand.Seed,
//     …) and crypto/rand — per-unit RNGs must be constructed from explicit
//     seeds (experiment Specs derive theirs with experiments.DeriveSeed)
//   - environment-dependent logic (os.Getenv and friends)
//   - goroutine spawns: concurrency lives in the sanctioned engine worker
//     pool (internal/experiments.RunIDs), not in model/simulation code
//   - any reference to obs.Wall, the observability layer's time.Now shim:
//     internal/obs is exempt (the shim is its sanctioned surface), so
//     without this rule a critical package could smuggle wall time into
//     its event stream by constructing obs.Wall and handing it to a bus.
//     Buses there run on the injected obs.Clock (obs.Logical by default);
//     only the exempt concurrent substrate driver installs the wall clock
//
// The engine itself legitimately measures wall time and spawns its pool;
// such sites carry a `//lint:allow nodeterm <why>` annotation.
package nodeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"nuconsensus/internal/lint/analysis"
)

// CriticalPackages lists the import-path suffixes of the packages whose
// executions must be deterministic. The meta-test in nodeterm_test.go
// checks this list (plus ExemptPackages) against the actual internal/
// directory layout so a new package cannot dodge classification silently.
var CriticalPackages = []string{
	"internal/model",
	"internal/sim",
	"internal/dag",
	"internal/experiments",
	"internal/consensus",
	"internal/transform",
	"internal/quorum",
	"internal/explore",
	// The serving layer is shared verbatim between E18's deterministic
	// sim runs and cmd/nucd's real TCP path; the split keeps nondeterminism
	// (wall time, goroutines) in cmd/nucd, which nodeterm does not cover.
	"internal/serve",
}

// ExemptPackages maps the remaining internal/ packages to the reason they
// are outside nodeterm's scope. Every internal/ package must appear in
// exactly one of the two lists.
var ExemptPackages = map[string]string{
	"internal/check":  "pure predicates over finished runs; no execution of its own",
	"internal/fd":     "failure-detector histories are seeded by their constructors; timing-free",
	"internal/hb":     "heartbeat modules model partial synchrony and are exercised under seeded schedulers",
	"internal/netrun": "real-network runner: wall-clock delivery is its purpose, not table input",
	"internal/rsm":    "replicated-log layer runs inside the deterministic simulator; validated by its own tests",
	// internal/substrate hosts the shared concurrent cluster driver
	// (goroutine-per-process loop, yield sleeps): the whole async backend,
	// the intentionally nondeterministic twin of internal/sim, and the
	// loop under tcp. Those timing sites are sanctioned — they ARE the
	// nondeterminism the concurrent substrates exist to provide.
	// The sim backend's determinism is not at risk: its step engine lives
	// in internal/sim, which stays on the critical list.
	"internal/substrate": "shared driver of the intentionally nondeterministic concurrent substrates; sanctioned timing sites",
	"internal/wire":      "pure encode/decode; fuzzed separately",
	"internal/lint":      "the analyzers themselves (and their fixtures) are not simulation code",
	// internal/obs is the observability layer: its Wall clock shim
	// (time.Now) and debug HTTP server are its sanctioned nondeterministic
	// surface. Determinism-critical packages are barred from reaching that
	// surface by this analyzer's obs.Wall rule.
	"internal/obs": "observability layer; Wall clock and pprof server are its sanctioned surface (critical packages are kept off it by the obs.Wall rule)",
}

// Analyzer is the nodeterm pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc: "forbid wall-clock, ambient randomness, env vars, ad-hoc goroutines " +
		"and obs.Wall in determinism-critical packages",
	Run: run,
}

// bannedFuncs maps package path -> function name -> short reason. An
// entry of "*" bans every package-level function not explicitly allowed.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "wall-clock read",
		"Since":     "wall-clock read",
		"Until":     "wall-clock read",
		"After":     "wall-clock timer",
		"Tick":      "wall-clock timer",
		"NewTimer":  "wall-clock timer",
		"NewTicker": "wall-clock timer",
		"AfterFunc": "wall-clock timer",
		"Sleep":     "wall-clock dependency",
	},
	"os": {
		"Getenv":    "environment-dependent logic",
		"LookupEnv": "environment-dependent logic",
		"Environ":   "environment-dependent logic",
		"ExpandEnv": "environment-dependent logic",
	},
	"crypto/rand": {
		"Read":  "nondeterministic randomness",
		"Int":   "nondeterministic randomness",
		"Prime": "nondeterministic randomness",
		"Text":  "nondeterministic randomness",
	},
	"math/rand":    {"*": "global math/rand source"},
	"math/rand/v2": {"*": "global math/rand source"},
}

// randConstructors are the explicitly-seeded constructors of math/rand
// and math/rand/v2 that remain legal in critical packages (their seed
// arguments are the caller's responsibility; wall-clock seeds are caught
// by the time.* bans).
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Critical reports whether the given package path is determinism-critical.
func Critical(path string) bool {
	for _, suffix := range CriticalPackages {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !Critical(pass.Pkg.Path()) {
		return nil, nil
	}
	for i, file := range pass.Files {
		if strings.HasSuffix(pass.Filenames[i], "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine spawn in determinism-critical package %s: concurrency belongs to the engine worker pool (annotate with //lint:allow nodeterm if this IS the pool)",
					pass.Pkg.Path())
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && isObsWall(obj) {
					pass.Reportf(n.Pos(),
						"obs.Wall in determinism-critical package %s: stamp events via the injected obs.Clock (obs.Logical by default); only the exempt concurrent substrate driver installs the wall clock",
						pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkCall reports calls to banned package-level functions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	pkgPath := fn.Pkg().Path()
	banned, ok := bannedFuncs[pkgPath]
	if !ok {
		return
	}
	name := fn.Name()
	reason := banned[name]
	if reason == "" {
		if wild := banned["*"]; wild != "" && !randConstructors[name] {
			reason = wild
		}
	}
	if reason == "" {
		return
	}
	pass.Reportf(call.Pos(), "%s in determinism-critical package %s: %s.%s (derive all inputs from explicit seeds)",
		reason, pass.Pkg.Path(), pkgPath, name)
}

// isObsWall reports whether obj is the Wall type of the repo's
// observability package (matched by import-path suffix so the rule also
// works on analysistest fixtures and forks of the module path).
func isObsWall(obj types.Object) bool {
	if obj.Name() != "Wall" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs")
}
