package metric

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n elements of E whose last one ends where a PROT_NONE
// page begins, so that a read or a write of even one element past them
// faults. The mapping is unmapped when the test ends.
func guarded[E any](t *testing.T, n int) []E {
	t.Helper()
	page := syscall.Getpagesize()
	size := int(unsafe.Sizeof(*new(E)))
	data := (n*size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*E)(unsafe.Pointer(&mem[data-n*size])), n)
}

// TestL2RowsReadsOnlyItsRows puts the slab's last vector, the positions
// and the distances each flush against a PROT_NONE page, so that reading
// a coordinate past the last vector, a position past the batch or
// writing a distance past it faults: for every dim up to 17 and every
// batch size up to 64, with the last vector in every batch, at the end
// of it and, in a short last block, in the lanes the batch leaves over.
func TestL2RowsReadsOnlyItsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for dim := 1; dim <= 17; dim++ {
		const m = 9
		rows := guarded[float64](t, m*dim)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		q := randVec(rng, dim)
		for n := 1; n <= 64; n++ {
			pos := guarded[int32](t, n)
			for i := range pos {
				pos[i] = int32(rng.Intn(m))
			}
			pos[n-1] = m - 1
			checkL2Rows(t, q, rows, pos, 0.8)
			dist := guarded[float64](t, n)
			L2Rows(dist, q, rows, pos, 0.8)
		}
	}
}
