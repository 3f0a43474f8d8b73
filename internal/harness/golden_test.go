package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenDir holds, per experiment, the report lmsim -json printed at
// -scale small and the table lmsim printed from it. make golden-check
// reruns the experiments against the JSON.
const goldenDir = "../../testdata/golden"

// TestGoldenTables renders every JSON golden through Report.Print and
// requires the table recorded beside it, byte for byte: the JSON pins
// each number at full precision, the table pins what is printed of it.
func TestGoldenTables(t *testing.T) {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	slices.Sort(ids)
	for _, ext := range []string{".json", ".txt"} {
		paths, err := filepath.Glob(filepath.Join(goldenDir, "*_small"+ext))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range paths {
			got = append(got, strings.TrimSuffix(filepath.Base(p), "_small"+ext))
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("%s goldens are for %v, want one per experiment %v", ext, got, ids)
		}
	}
	for _, id := range ids {
		f, err := os.Open(filepath.Join(goldenDir, id+"_small.json"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ReadReport(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.Experiment != id {
			t.Fatalf("%s_small.json holds a report of %q", id, rep.Experiment)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, id+"_small.txt"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := rep.Print(&got); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// lmsim ends each table with a timing line and a blank line;
		// the transcript keeps the blank line.
		got.WriteString("\n")
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: table printed from the JSON golden differs from %s_small.txt:\n%s\nwant:\n%s",
				id, id, got.Bytes(), want)
		}
	}
}
