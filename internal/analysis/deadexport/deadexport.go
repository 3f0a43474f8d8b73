// Package deadexport finds code kept alive only by its tests: a
// package-level func, method, type, var or const of a package under
// internal/ that no non-test file of the module references. It builds,
// is tested and is documented, but nothing the module ships runs it.
// staticcheck's U1000 cannot see this class: it counts uses in _test.go
// files, and it never reports an exported name, which an importer it
// cannot see might use. Under internal/ every importer is in the module.
//
// What counts as a reference is analysis.References; bench/ and
// examples/ count like any other non-test file, since the loader
// type-checks them with the module. A declaration that tests use on
// purpose — another package's fixture or oracle, or a seam the design
// names — carries //lint:allow deadexport <reason>.
package deadexport

import (
	"go/types"
	"slices"
	"strings"

	"landmarkdht/internal/analysis"
)

// Analyzer reports package-level declarations under internal/ that no
// non-test file of the module references.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc: "report package-level declarations under internal/ that no non-test file " +
		"of the module references; delete them with their tests, or allow a test fixture",
	Run: run,
}

func run(pass *analysis.Pass) {
	// A fixture type-checks under its directory's name, "internal".
	if !slices.Contains(strings.Split(pass.Pkg.Path(), "/"), "internal") {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		check(pass, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				check(pass, named.Method(i))
			}
		}
	}
}

func check(pass *analysis.Pass, obj types.Object) {
	if pass.Referenced[obj] {
		return
	}
	kind := "func "
	switch obj := obj.(type) {
	case *types.TypeName:
		kind = "type "
	case *types.Var:
		kind = "var "
	case *types.Const:
		kind = "const "
	case *types.Func:
		if recv := obj.Signature().Recv(); recv != nil {
			kind = types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg))
			if strings.HasPrefix(kind, "*") {
				kind = "(" + kind + ")"
			}
			kind = "method " + kind + "."
		}
	}
	pass.Reportf(obj.Pos(), "%s%s is referenced by no non-test file of the module", kind, obj.Name())
}
