//go:build !(linux || darwin)

package netrt

// mapColumns makes the columns' memory on the heap where the syscall
// package has no Mprotect to seal a mapping with: the columns behave
// the same, without leaving the collector's pacing.
func mapColumns(size int) ([]byte, error) { return make([]byte, size), nil }

// sealColumns leaves heap memory writable.
func sealColumns([]byte) error { return nil }

// unmapColumns leaves heap memory to the collector.
func unmapColumns([]byte) error { return nil }
