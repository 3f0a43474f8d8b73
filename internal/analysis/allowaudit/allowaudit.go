// Package allowaudit keeps the suppression system honest. A
// //lint:allow annotation is a claim — "this diagnostic is a false
// positive, and here is why" — and claims rot: the code moves, the
// analyzer sharpens, the annotation stays behind suppressing nothing,
// and the next reader inherits an escape hatch with no argument
// attached. This analyzer makes the annotation inventory
// self-sustaining:
//
//   - every //lint:allow / //lint:file-allow must name a known
//     analyzer,
//   - must carry a reason (free text after the analyzer name),
//   - and must actually suppress at least one diagnostic: the named
//     analyzer is re-run in raw mode (analysis.RawDiagnostics) and the
//     annotation's scope — same/next line, or the whole file for
//     file-allow — must contain one of its findings. Stale allows are
//     diagnostics, so deleting dead suppressions is enforced, not
//     aspirational.
//
// //lint:context annotations are audited too: one that attaches to no
// function declaration, or names a context no analyzer knows, is dead
// configuration and gets reported.
//
// allowaudit's own diagnostics can be suppressed with
// //lint:allow allowaudit <reason> — which must itself carry a reason,
// checked the same way (usefulness of a self-referential allow is not
// decidable, so only the reason is enforced).
package allowaudit

import (
	"go/token"

	"landmarkdht/internal/analysis"
	"landmarkdht/internal/analysis/deadexport"
	"landmarkdht/internal/analysis/detrand"
	"landmarkdht/internal/analysis/errdrop"
	"landmarkdht/internal/analysis/execblock"
	"landmarkdht/internal/analysis/lockheld"
	"landmarkdht/internal/analysis/maporder"
	"landmarkdht/internal/analysis/nogoroutine"
	"landmarkdht/internal/analysis/wallclock"
)

// Checked are the analyzers whose allow annotations this audit
// validates — every analyzer of the suite except allowaudit itself.
var Checked = []*analysis.Analyzer{
	detrand.Analyzer,
	wallclock.Analyzer,
	maporder.Analyzer,
	nogoroutine.Analyzer,
	execblock.Analyzer,
	lockheld.Analyzer,
	errdrop.Analyzer,
	deadexport.Analyzer,
}

// Analyzer audits //lint:allow and //lint:context annotations.
var Analyzer = &analysis.Analyzer{
	Name: "allowaudit",
	Doc: "require every //lint:allow to name a known analyzer, carry a reason, and " +
		"suppress at least one diagnostic; flag //lint:context annotations that attach to nothing",
	Run: run,
}

func run(pass *analysis.Pass) {
	byName := make(map[string]*analysis.Analyzer, len(Checked))
	for _, a := range Checked {
		byName[a.Name] = a
	}
	// Raw findings of each referenced analyzer, computed once on
	// demand: position-indexed so scope matching is cheap.
	raw := make(map[string][]analysis.Diagnostic)
	rawFor := func(a *analysis.Analyzer) []analysis.Diagnostic {
		if d, ok := raw[a.Name]; ok {
			return d
		}
		d := analysis.RawDiagnostics(a, pass.Fset, pass.Files, pass.Pkg, pass.Info, pass.Referenced)
		raw[a.Name] = d
		return d
	}

	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, fileWide, ok := analysis.ParseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				if reason == "" {
					pass.Reportf(c.Pos(),
						"//lint:allow %s without a reason; state why the diagnostic is safe to suppress", name)
				}
				if name == "allowaudit" {
					continue // reason checked above; usefulness is self-referential
				}
				a, known := byName[name]
				if !known {
					pass.Reportf(c.Pos(), "//lint:allow names unknown analyzer %q", name)
					continue
				}
				if !allowUsed(rawFor(a), pos, fileWide) {
					scope := "on this or the next line"
					if fileWide {
						scope = "anywhere in this file"
					}
					pass.Reportf(c.Pos(),
						"stale //lint:allow %s: the analyzer reports no diagnostic %s; delete the annotation", name, scope)
				}
			}
		}
	}

	auditContexts(pass)
}

// allowUsed reports whether any raw diagnostic falls inside the
// annotation's suppression scope.
func allowUsed(diags []analysis.Diagnostic, at token.Position, fileWide bool) bool {
	for _, d := range diags {
		if d.Pos.Filename != at.Filename {
			continue
		}
		if fileWide || d.Pos.Line == at.Line || d.Pos.Line == at.Line+1 {
			return true
		}
	}
	return false
}

// auditContexts reports //lint:context annotations that attach to no
// function declaration or name an unknown context.
func auditContexts(pass *analysis.Pass) {
	g := analysis.NewCallGraph(pass)
	for _, pos := range g.DanglingContexts() {
		pass.Reportf(pos, "//lint:context attaches to no function declaration")
	}
	for pos, name := range g.UnknownContexts() {
		pass.Reportf(pos, "//lint:context names unknown context %q (known: executor)", name)
	}
}
