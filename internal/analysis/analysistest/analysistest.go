// Package analysistest runs an analyzer over a fixture package and
// checks its diagnostics against expectations embedded in the fixture
// source, mirroring golang.org/x/tools/go/analysis/analysistest on the
// standard library alone.
//
// An expectation is a comment of the form
//
//	// want "regexp"
//
// attached to the line the diagnostic is expected on; several quoted
// patterns may follow one want. A comment `// want-1 "regexp"` expects
// the diagnostic that many lines away (here: the line above) — needed
// when the diagnostic points at a comment, since two line comments
// cannot share a line. Every diagnostic must be matched by an
// expectation and vice versa. //lint:allow annotations in fixtures are
// honored, so an analyzer's escape hatch is tested by an annotated
// violation carrying no want.
//
// Fixture packages live under testdata (ignored by the go tool) and may
// import only the standard library — plus sibling fixture packages: a
// subdirectory of the fixture dir is type-checked as a package named by
// its basename (`import "wire"` for a wire/ subdir), which lets a
// fixture exercise analyzers that key on import paths. A sibling that
// imports the fixture is checked after it, so it can use the fixture's
// declarations. The fixture and its siblings are the module that
// analysis.References is built from.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"landmarkdht/internal/analysis"
	"landmarkdht/internal/analysis/loader"
)

// Run analyzes the fixture package in dir (relative to the test's
// working directory, e.g. "testdata/src/a") and reports any mismatch
// between diagnostics and // want expectations as test errors.
func Run(t *testing.T, a *analysis.Analyzer, dir string) { //lint:allow deadexport the driver of every analyzer's fixture test
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseFixture(fset, dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}
	pkgs, err := parseSubPackages(fset, dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	fixture := &loader.Package{Path: filepath.Base(dir), Dir: dir, Files: files}
	pkgs = append(pkgs, fixture)
	imp := &fixtureImporter{std: importer.ForCompiler(fset, "source", nil), fset: fset, pkgs: pkgs}
	// The fixture first, checking the siblings it imports on the way;
	// then the siblings that import it.
	for _, p := range append([]*loader.Package{fixture}, pkgs...) {
		if _, err := imp.Import(p.Path); err != nil {
			t.Fatalf("analysistest: fixture %s does not type-check: %v", p.Dir, err)
		}
	}
	diags := analysis.RunPackage(a, fset, files, fixture.Types, fixture.Info, analysis.References(pkgs))

	wants, err := collectWants(fset, files)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
}

// fixtureImporter resolves the fixture and its siblings by name,
// type-checking each on first import, and defers everything else to the
// standard-library source importer.
type fixtureImporter struct {
	std  types.Importer
	fset *token.FileSet
	pkgs []*loader.Package
}

func (f *fixtureImporter) Import(path string) (*types.Package, error) {
	for _, p := range f.pkgs {
		if p.Path != path {
			continue
		}
		if p.Types == nil {
			if err := p.Check(f.fset, f); err != nil {
				return nil, err
			}
		}
		return p.Types, nil
	}
	return f.std.Import(path)
}

// parseSubPackages parses each subdirectory of the fixture dir holding
// Go files as a package named by its basename.
func parseSubPackages(fset *token.FileSet, dir string) ([]*loader.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var subs []*loader.Package
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		files, err := parseFixture(fset, sub)
		if err != nil {
			return nil, err
		}
		if len(files) > 0 {
			subs = append(subs, &loader.Package{Path: e.Name(), Dir: sub, Files: files})
		}
	}
	return subs, nil
}

func parseFixture(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`^//\s*want([+-]\d+)?\s+(.*)$`)

func collectWants(fset *token.FileSet, files []*ast.File) ([]want, error) {
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						return nil, fmt.Errorf("%s: bad want offset %q: %v", pos, m[1], err)
					}
					line += off
				}
				for _, q := range splitQuoted(m[2]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, want{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// splitQuoted extracts the double-quoted string literals from s.
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		rest := s[start+1:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return out
		}
		out = append(out, s[start:start+1+end+1])
		s = rest[end+1:]
	}
}
