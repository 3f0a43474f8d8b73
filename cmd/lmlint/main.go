// Command lmlint is the project's determinism linter: a multichecker
// that runs the custom analyzers under internal/analysis over the
// module and exits non-zero on any finding.
//
// The analyzers enforce the simulator's reproducibility contract (a
// sim.Engine run is single-threaded and bit-for-bit deterministic per
// seed):
//
//	detrand      no math/rand global-source functions
//	wallclock    no time.Now/Sleep/... in simulated code
//	maporder     no order-sensitive effects inside range-over-map
//	nogoroutine  no goroutines/channels/sync in engine-owned code
//
// and the live runtime's concurrency contract (call-graph-aware; see
// internal/analysis's CallGraph and //lint:context executor roots):
//
//	execblock    no blocking ops reachable from executor context
//	lockheld     no mutex held across a blocking operation
//	errdrop      no discarded errors on wire/conn paths
//	allowaudit   every //lint:allow is known, reasoned, and live
//
// and the module's economy:
//
//	deadexport   nothing under internal/ is referenced by tests alone
//
// Usage:
//
//	lmlint [-run detrand,maporder] [packages]
//
// With no package arguments (or "./..."), the whole module is checked.
// A package argument of the form ./dir or ./dir/... restricts the run.
// Violations are suppressed at the source with //lint:allow <analyzer>
// (same line or the line above) or file-wide with //lint:file-allow;
// see internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"landmarkdht/internal/analysis"
	"landmarkdht/internal/analysis/allowaudit"
	"landmarkdht/internal/analysis/deadexport"
	"landmarkdht/internal/analysis/detrand"
	"landmarkdht/internal/analysis/errdrop"
	"landmarkdht/internal/analysis/execblock"
	"landmarkdht/internal/analysis/loader"
	"landmarkdht/internal/analysis/lockheld"
	"landmarkdht/internal/analysis/maporder"
	"landmarkdht/internal/analysis/nogoroutine"
	"landmarkdht/internal/analysis/wallclock"
)

var all = []*analysis.Analyzer{
	detrand.Analyzer,
	wallclock.Analyzer,
	maporder.Analyzer,
	nogoroutine.Analyzer,
	execblock.Analyzer,
	lockheld.Analyzer,
	errdrop.Analyzer,
	deadexport.Analyzer,
	allowaudit.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	verbose := flag.Bool("v", false, "list packages as they are checked")
	flag.Usage = usage
	flag.Parse()

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmlint:", err)
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmlint:", err)
		os.Exit(2)
	}
	root, err := loader.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmlint:", err)
		os.Exit(2)
	}
	fset, pkgs, err := loader.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmlint:", err)
		os.Exit(2)
	}
	match, err := packageFilter(root, cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmlint:", err)
		os.Exit(2)
	}

	refs := analysis.References(pkgs)
	findings := 0
	for _, pkg := range pkgs {
		if !match(pkg.Dir) {
			continue
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, "lmlint: checking", pkg.Path)
		}
		for _, a := range analyzers {
			for _, d := range analysis.RunPackage(a, fset, pkg.Files, pkg.Types, pkg.Info, refs) {
				d.Pos.Filename = relPath(cwd, d.Pos.Filename)
				fmt.Println(d)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "lmlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: lmlint [-run names] [-v] [packages]\n\nanalyzers:\n")
	for _, a := range all {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}

func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	if runList == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runList, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// packageFilter interprets the package arguments: none or "./..." means
// the whole module; "./dir" means exactly that directory; "./dir/..."
// means that subtree.
func packageFilter(root, cwd string, args []string) (func(dir string) bool, error) {
	if len(args) == 0 {
		return func(string) bool { return true }, nil
	}
	type pat struct {
		dir     string
		subtree bool
	}
	var pats []pat
	for _, arg := range args {
		subtree := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			arg, subtree = rest, true
		}
		if arg == "." && subtree && filepath.Clean(cwd) == root {
			return func(string) bool { return true }, nil
		}
		dir := arg
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("package pattern %q: %w", arg, err)
		}
		pats = append(pats, pat{dir: filepath.Clean(dir), subtree: subtree})
	}
	return func(dir string) bool {
		dir = filepath.Clean(dir)
		for _, p := range pats {
			if dir == p.dir {
				return true
			}
			if p.subtree && strings.HasPrefix(dir, p.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}

func relPath(cwd, path string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
