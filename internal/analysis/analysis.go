// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library's go/ast and go/types. It exists because the repository takes
// no external dependencies; the API mirrors the real framework closely
// enough that the analyzers under internal/analysis/... could be ported
// to x/tools verbatim.
//
// An Analyzer inspects one type-checked package at a time through a
// Pass and reports Diagnostics. Diagnostics can be suppressed in the
// source with annotation comments:
//
//	//lint:allow <analyzer> [reason...]       suppresses diagnostics of
//	                                          <analyzer> on the same line
//	                                          or the line directly below
//	//lint:file-allow <analyzer> [reason...]  suppresses diagnostics of
//	                                          <analyzer> in the whole file
//
// The annotation syntax is directive-shaped (no space after //) so
// gofmt leaves it alone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package held by pass and reports findings
	// through pass.Reportf.
	Run func(pass *Pass)
}

// Diagnostic is one finding, positioned in the file set it came from.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one package's syntax and type information to an
// Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Referenced is the module-wide set of objects some non-test file
	// references (see References).
	Referenced map[types.Object]bool

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunPackage applies one analyzer to a type-checked package and returns
// the diagnostics that survive //lint:allow suppression, sorted by
// position. refs is the module's References.
func RunPackage(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, refs map[types.Object]bool) []Diagnostic {
	out := RawDiagnostics(a, fset, files, pkg, info, refs)
	kept := out[:0]
	for _, d := range out {
		if !suppressed(fset, files, d) {
			kept = append(kept, d)
		}
	}
	return kept
}

// RawDiagnostics applies one analyzer and returns every diagnostic,
// including the ones a //lint:allow annotation would suppress, sorted
// by position. The allowaudit analyzer uses it to decide whether an
// annotation still suppresses anything.
func RawDiagnostics(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, refs map[types.Object]bool) []Diagnostic {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, Referenced: refs}
	a.Run(pass)
	out := pass.diags
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Column < out[j].Pos.Column
	})
	return out
}

// suppressed reports whether an annotation comment allows d.
func suppressed(fset *token.FileSet, files []*ast.File, d Diagnostic) bool {
	for _, f := range files {
		if fset.Position(f.Pos()).Filename != d.Pos.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, _, fileWide, ok := ParseAllow(c.Text)
				if !ok || name != d.Analyzer {
					continue
				}
				pos := fset.Position(c.Pos())
				if pos.Line == d.Pos.Line && pos.Column == d.Pos.Column {
					// The diagnostic points AT this annotation (allowaudit
					// auditing the comment); an allow cannot vouch for
					// itself.
					continue
				}
				if fileWide {
					return true
				}
				if pos.Line == d.Pos.Line || pos.Line == d.Pos.Line-1 {
					return true
				}
			}
		}
	}
	return false
}

// ParseAllow decodes a //lint:allow or //lint:file-allow comment,
// returning the named analyzer, the free-text reason after the name
// ("" when missing — the allowaudit analyzer flags that), and whether
// the allowance is file-wide.
func ParseAllow(text string) (analyzer, reason string, fileWide bool, ok bool) {
	body, found := strings.CutPrefix(text, "//lint:")
	if !found {
		return "", "", false, false
	}
	switch {
	case strings.HasPrefix(body, "allow "):
		body = strings.TrimPrefix(body, "allow ")
	case strings.HasPrefix(body, "file-allow "):
		body, fileWide = strings.TrimPrefix(body, "file-allow "), true
	default:
		return "", "", false, false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", "", false, false
	}
	return fields[0], strings.Join(fields[1:], " "), fileWide, true
}

// liveCapable lists the packages that run in real time instead of on
// the single-threaded simulation engine: netrt, its executor livert, and
// the commands that run or drive lmnode processes. The engine-owned
// contract (no goroutines/channels/sync, no wall clock) exists to keep
// simulated trials reproducible; in these packages real concurrency and
// real time are the whole point, so the analyzers that enforce the
// contract skip them by design rather than through //lint:allow
// annotations.
var liveCapable = []string{
	"landmarkdht/internal/runtime/livert",
	"landmarkdht/internal/runtime/netrt",
	"landmarkdht/cmd/lmchaos",
	"landmarkdht/cmd/lmnode",
}

// LiveCapable reports whether the package with the given import path is
// exempt from the engine-owned single-threaded/virtual-clock contract.
// Besides exact matches it accepts a trailing path segment of an entry
// ("livert" for "landmarkdht/internal/runtime/livert"), because test
// fixtures type-check under their directory basename.
func LiveCapable(path string) bool {
	for _, entry := range liveCapable {
		if path == entry || strings.HasSuffix(entry, "/"+path) {
			return true
		}
	}
	return false
}

// QualifiedName resolves a selector expression of the form pkg.Name
// where pkg is an imported package qualifier, returning the package's
// import path and the selected name. ok is false for any other
// selector (method call, field access, shadowed qualifier).
func QualifiedName(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// ReceiverNamed returns the named type of a method call receiver
// expression, unwrapping pointers and aliases. It returns nil when the
// expression's type is not (a pointer to) a named type.
func ReceiverNamed(info *types.Info, expr ast.Expr) *types.Named {
	t := info.TypeOf(expr)
	if t == nil {
		return nil
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}
