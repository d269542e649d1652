package analysis

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
)

// CheckDir parses and type-checks the .go files of a single directory
// that lives outside the module's package graph (an analysistest fixture
// under testdata/src). importPath becomes the package path seen by
// analyzers, so fixtures can impersonate determinism-critical packages
// such as "internal/model". Imports are resolved through `go list
// -export` relative to resolveDir, so fixtures may import the standard
// library but not each other.
func CheckDir(dir, importPath, resolveDir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, func(path string) (string, error) {
		return ExportFile(resolveDir, path)
	})
	t := &listPkg{
		ImportPath: importPath,
		Dir:        dir,
		GoFiles:    goFiles,
	}
	return typeCheck(fset, imp, t)
}
