package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Filenames  []string
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists the packages matching the patterns with the go toolchain,
// compiles their dependencies for export data, and parses + type-checks
// every matched (non-dependency) package from source, sorted by import
// path. It is cmd/nuclint's package loader.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json", "-deps", "-export", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	byPath := make(map[string]*listPkg)
	var targets []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		lp := p
		byPath[lp.ImportPath] = &lp
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if !lp.DepOnly && !lp.Standard && len(lp.GoFiles) > 0 {
			targets = append(targets, &lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	exportFor := func(path string) (string, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return p.Export, nil
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exportFor)

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typeCheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses and type-checks one listed package from source,
// resolving its imports through export data.
func typeCheck(fset *token.FileSet, imp types.Importer, t *listPkg) (*Package, error) {
	var files []*ast.File
	var names []string
	for _, f := range t.GoFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, f)
		}
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, af)
		names = append(names, path)
	}
	info := typesInfo()
	conf := types.Config{Importer: remapImporter{imp, t.ImportMap}}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Fset:       fset,
		Files:      files,
		Filenames:  names,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// remapImporter applies a package's ImportMap (vendoring / test-variant
// renames) before delegating to the shared export-data importer.
type remapImporter struct {
	imp types.Importer
	m   map[string]string
}

func (r remapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := r.m[path]; ok {
		path = mapped
	}
	return r.imp.Import(path)
}

// newExportImporter returns an importer that reads the compiler export
// data located by exportFor. The gc importer caches packages, so shared
// dependencies are parsed once per loader session.
func newExportImporter(fset *token.FileSet, exportFor func(string) (string, error)) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, err := exportFor(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// stdExport locates (building if needed) the export data of standard
// library and module packages by shelling out to `go list -export`. It is
// used by the analysistest harness, whose fixture packages live outside
// the module's package graph but still import the standard library.
var stdExport = struct {
	sync.Mutex
	files map[string]string
}{files: make(map[string]string)}

// ExportFile returns the path to the compiler export data for the given
// import path, resolved relative to dir.
func ExportFile(dir, path string) (string, error) {
	stdExport.Lock()
	defer stdExport.Unlock()
	if f, ok := stdExport.files[path]; ok {
		return f, nil
	}
	cmd := exec.Command("go", "list", "-json", "-deps", "-export", "--", path)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("analysis: go list -export %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return "", err
		}
		if p.Export != "" {
			stdExport.files[p.ImportPath] = p.Export
		}
	}
	f, ok := stdExport.files[path]
	if !ok {
		return "", fmt.Errorf("analysis: no export data for %q", path)
	}
	return f, nil
}
