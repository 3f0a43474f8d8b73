package analysis

import (
	"go/ast"
	"go/types"

	"landmarkdht/internal/analysis/loader"
)

// References returns the set of objects that some file of pkgs
// references, built once per module and handed to every Pass as
// Pass.Referenced. Three rules decide what counts:
//
//   - a use of an instance counts for its origin: (*List[int]).Push
//     references (*List[T]).Push;
//   - a use inside the object's own declaration does not count: a
//     function that only calls itself is referenced by nothing;
//   - a method counts as referenced when a type of pkgs whose method
//     set holds it, declared or promoted, implements an interface with
//     a method of that name, where the interface is named in a package
//     pkgs reach through their imports (fmt.Stringer, heap.Interface,
//     the module's own), is the type of an expression, or is error: a
//     call through the interface, made by code the pass cannot see,
//     reaches it.
func References(pkgs []*loader.Package) map[types.Object]bool {
	refs := make(map[types.Object]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				// A declaration is a func, or one spec of a group.
				decls := []ast.Node{d}
				if g, ok := d.(*ast.GenDecl); ok {
					decls = decls[:0]
					for _, s := range g.Specs {
						decls = append(decls, s)
					}
				}
				for _, decl := range decls {
					ast.Inspect(decl, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if obj := origin(p.Info.Uses[id]); ok && obj != nil && (obj.Pos() < decl.Pos() || obj.Pos() >= decl.End()) {
							refs[obj] = true
						}
						return true
					})
				}
			}
		}
	}
	byMethod := interfaces(pkgs)
	for _, p := range pkgs {
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for i := range mset.Len() {
				m := mset.At(i).Obj()
				for _, it := range byMethod[m.Name()] {
					if types.Implements(ptr, it) {
						refs[origin(m)] = true
						break
					}
				}
			}
		}
	}
	return refs
}

// origin maps a function or method of an instance to its generic
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// interfaces indexes by method name every non-generic interface with
// methods that is named in a package pkgs reach, is an expression's type
// in pkgs, or is error.
func interfaces(pkgs []*loader.Package) map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if named, isNamed := t.(*types.Named); !ok || seen[it] || !it.IsMethodSet() || isNamed && named.TypeParams() != nil {
			return
		}
		seen[it] = true
		for i := range it.NumMethods() {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byMethod
}
