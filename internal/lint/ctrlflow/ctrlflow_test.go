package ctrlflow_test

import (
	"os"
	"path/filepath"
	"testing"

	"nuconsensus/internal/lint/analysis"
	"nuconsensus/internal/lint/ctrlflow"
)

// TestFuncsCoverEveryFunction checks that Funcs yields one entry per
// function — declarations, methods and closures — each with its graph and
// value tables.
func TestFuncsCoverEveryFunction(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

type T struct{ n int }

func (t *T) Bump() { t.n++ }

func top(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	f := func(v int) int { return v * 2 }
	return f(s)
}
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.CheckDir(dir, "fix", wd)
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{Fset: pkg.Fset, Files: pkg.Files, Filenames: pkg.Filenames, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo}
	names := map[string]bool{}
	for _, fi := range ctrlflow.Funcs(pass) {
		names[fi.Name] = true
		if fi.Graph == nil || fi.Vals == nil {
			t.Errorf("func %s missing graph or values", fi.Name)
		}
	}
	for _, want := range []string{"(*T).Bump", "top", "top·func1"} {
		if !names[want] {
			t.Errorf("missing function %q in ctrlflow result (have %v)", want, names)
		}
	}
}
