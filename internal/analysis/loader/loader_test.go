package loader

import (
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestParseDirSkipsUnsatisfiedBuildTags pins the tag-paired-file case:
// a package with race_enabled.go (//go:build race) and
// race_disabled.go (//go:build !race) must type-check as ONE variant —
// the default-tag one — not both (a redeclaration error). A file named
// for another architecture is skipped the same way.
func TestParseDirSkipsUnsatisfiedBuildTags(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("on.go", "//go:build race\n\npackage p\n\nconst flag = true\n")
	write("off.go", "//go:build !race\n\npackage p\n\nconst flag = false\n")
	write("plain.go", "package p\n\nvar _ = flag\n")
	other := "arm64"
	if runtime.GOARCH == other {
		other = "amd64"
	}
	write("arch_"+other+".go", "package p\n\nconst flag = false\n")

	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, filepath.Base(fset.Position(f.Package).Filename))
	}
	if len(names) != 2 {
		t.Fatalf("parsed %v, want the !race variant plus the plain file", names)
	}
	for _, n := range names {
		if n == "on.go" {
			t.Fatalf("race-tagged file parsed under default tags: %v", names)
		}
	}
}

// TestSatisfiesBuildHostTags: a //go:build line evaluates against the
// host's default tags, as `go build` would — GOOS and GOARCH, the
// release tags — and a file with no constraint always loads.
func TestSatisfiesBuildHostTags(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"package p\n", true},
		{"//go:build linux || darwin || windows\n\npackage p\n", true},
		{"//go:build plan9 && race\n\npackage p\n", false},
		{"//go:build !race\n\npackage p\n", true},
		{"//go:build go1.1\n\npackage p\n", true},
		{"//go:build ignore\n\npackage p\n", false},
	}
	for i, c := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		files, err := parseDir(token.NewFileSet(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(files) == 1; got != c.want {
			t.Errorf("case %d: loaded = %v, want %v", i, got, c.want)
		}
	}
}
