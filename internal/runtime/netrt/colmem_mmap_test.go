//go:build linux || darwin

package netrt

import (
	"runtime/debug"
	"testing"

	"landmarkdht/internal/metric"
)

// TestSealedColumnsFault writes to each column of a sealed mapping: the
// write faults, where on the heap it would change the corpus under every
// later answer.
func TestSealedColumnsFault(t *testing.T) {
	c, mem, err := bootCorpus(ringScanData)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := mem.release(); err != nil {
			t.Error(err)
		}
	}()
	if mem == nil {
		t.Fatal("ring-scan's columns stayed on the heap")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	cols := c.Cols()
	for _, col := range []struct {
		name  string
		write func()
	}{
		{"keys", func() { cols.keys[1]++ }},
		{"ids", func() { cols.ids[1]++ }},
		{"pos", func() { cols.pos[1]++ }},
		{"pts", func() { cols.pts[1]++ }},
		{"slab", func() { c.(*dataset[metric.Vector]).at(1)[0]++ }},
	} {
		if !faults(col.write) {
			t.Errorf("a write to the sealed %s column succeeded", col.name)
		}
	}
}

// faults reports whether write panicked.
func faults(write func()) (faulted bool) {
	defer func() { faulted = recover() != nil }()
	write()
	return false
}
