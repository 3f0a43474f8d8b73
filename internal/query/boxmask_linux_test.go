package query

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"landmarkdht/internal/lph"
)

// TestBoxMaskReadsOnlyItsRows puts the rows flush against a PROT_NONE page
// on either side — the last row's last coordinate ends where the page
// after it begins, or the first row starts where the page before it
// ends — so that a read of even one coordinate outside the n rows faults,
// for every k up to one past the kernel's limit and every n up to 64.
func TestBoxMaskReadsOnlyItsRows(t *testing.T) {
	page := syscall.Getpagesize()
	data := (64*17*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[page+data:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[page])), data/8)
	rng := rand.New(rand.NewSource(29))
	for i := range all {
		all[i] = rng.Float64()
	}
	for k := 1; k <= 17; k++ {
		cube := make([]lph.Bounds, k)
		for j := range cube {
			cube[j] = lph.Bounds{Lo: 0.1, Hi: 0.9}
		}
		for n := 1; n <= 64; n++ {
			checkBoxMask(t, cube, all[len(all)-n*k:], n)
			checkBoxMask(t, cube, all[:n*k:n*k], n)
		}
	}
}
