//go:build linux || darwin

package netrt

import "syscall"

// mapColumns maps size bytes of private, zeroed, writable memory.
func mapColumns(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// sealColumns makes a mapping read-only.
func sealColumns(mem []byte) error { return syscall.Mprotect(mem, syscall.PROT_READ) }

// unmapColumns returns a mapping to the system.
func unmapColumns(mem []byte) error { return syscall.Munmap(mem) }
