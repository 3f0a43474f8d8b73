// Package loader discovers, parses, and type-checks every package of
// this module using only the standard library: directories are walked
// from the module root (the import path of a directory is the module
// path plus its relative path), intra-module imports are resolved
// against the packages already checked in dependency order, and
// standard-library imports are type-checked from $GOROOT source via
// go/importer's "source" compiler. No go/packages, no network, no
// export data required.
//
// Test files are not loaded: the determinism contract the analyzers
// enforce protects the simulator itself; tests assert it from outside.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	// Path is the package's import path (module path + relative dir).
	Path string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info hold the type-check results.
	Types *types.Package
	Info  *types.Info
}

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module declaration from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(line, "module")
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		mod := strings.TrimSpace(rest)
		if unq, err := strconv.Unquote(mod); err == nil {
			mod = unq
		}
		if mod == "" {
			break
		}
		return mod, nil
	}
	return "", fmt.Errorf("loader: no module declaration in %s/go.mod", root)
}

// Load parses and type-checks every package under the module root, in
// dependency order. The returned packages are sorted by import path.
func Load(root string) (*token.FileSet, []*Package, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := discover(fset, root, mod)
	if err != nil {
		return nil, nil, err
	}
	ordered, err := sortByDeps(pkgs, mod)
	if err != nil {
		return nil, nil, err
	}
	imp := &moduleImporter{
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*types.Package, len(ordered)),
	}
	for _, p := range ordered {
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := conf.Check(p.Path, fset, p.Files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("loader: type-checking %s: %w", p.Path, err)
		}
		p.Types, p.Info = tpkg, info
		imp.pkgs[p.Path] = tpkg
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Path < ordered[j].Path })
	return fset, ordered, nil
}

// moduleImporter resolves intra-module imports from the already-checked
// set and delegates everything else (the standard library) to the
// source importer.
type moduleImporter struct {
	std  types.ImporterFrom
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// discover walks the module tree and parses every directory holding
// non-test Go files into a Package (without types yet).
func discover(fset *token.FileSet, root, mod string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		ipath := mod
		if rel, _ := filepath.Rel(root, path); rel != "." {
			ipath = mod + "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, &Package{Path: ipath, Dir: path, Files: files})
		return nil
	})
	return pkgs, err
}

// parseDir parses the directory's non-test Go files, with comments.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only one variant of a tag-paired file (race_enabled.go beside
		// race_disabled.go, x_amd64.go beside an x_other.go built
		// everywhere else) can type-check into a package, so a file is
		// skipped exactly as `go build` would skip it with the host's
		// default tags: by its //go:build line and its _GOOS or _GOARCH
		// suffix.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// sortByDeps orders packages so every intra-module import precedes its
// importer.
func sortByDeps(pkgs []*Package, mod string) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(pkgs))
	var ordered []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case visiting:
			return fmt.Errorf("loader: import cycle through %s", p.Path)
		case done:
			return nil
		}
		state[p.Path] = visiting
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				ipath, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep, ok := byPath[ipath]; ok && (ipath == mod || strings.HasPrefix(ipath, mod+"/")) {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p.Path] = done
		ordered = append(ordered, p)
		return nil
	}
	// Deterministic traversal order.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}
