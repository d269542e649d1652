package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// A Finding is one positioned diagnostic from one analyzer, as collected
// by Run.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Posn, f.Analyzer, f.Message)
}

// Run executes every analyzer on every package. Diagnostics carrying a
// `//lint:allow <analyzer>` annotation on their line or the line above are
// suppressed. The returned findings are sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		allow := allowLines(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			name := a.Name
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Filenames: pkg.Filenames,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d Diagnostic) {
					posn := pkg.Fset.Position(d.Pos)
					if !allow.allows(name, posn) {
						out = append(out, Finding{Analyzer: name, Posn: posn, Message: d.Message})
					}
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// allowRx matches the escape-hatch annotation: //lint:allow name1,name2
// (an optional trailing rationale after a space is encouraged).
var allowRx = regexp.MustCompile(`^//\s*lint:allow\s+([a-zA-Z0-9_,]+)`)

// allowSet records, per file and line, which analyzers are allowed.
type allowSet map[string]map[int]map[string]bool

// allowLines scans the comments of every file for //lint:allow
// annotations. An annotation suppresses findings on its own line and on
// the line directly below (the usual "comment above the statement"
// placement).
func allowLines(fset *token.FileSet, files []*ast.File) allowSet {
	s := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				lines := s[posn.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					s[posn.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					for _, ln := range []int{posn.Line, posn.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = make(map[string]bool)
						}
						lines[ln][name] = true
					}
				}
			}
		}
	}
	return s
}

func (s allowSet) allows(analyzer string, posn token.Position) bool {
	return s[posn.Filename][posn.Line][analyzer]
}

// AllowedAt reports whether a //lint:allow annotation for the named
// analyzer covers the given position. Analyzers use this to honor the
// escape hatch at an enclosing statement (e.g. a range loop) rather than
// at the exact position of the diagnostic they report.
func AllowedAt(pass *Pass, name string, pos token.Pos) bool {
	return allowLines(pass.Fset, pass.Files).allows(name, pass.Fset.Position(pos))
}
