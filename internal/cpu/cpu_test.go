package cpu

import "testing"

// setVector turns the kernels off on any CPU and back on only where the
// CPU has them.
func TestSetVector(t *testing.T) {
	was := setVector(false)
	defer setVector(was)
	if AVX512() {
		t.Fatal("the kernels are on after setVector(false)")
	}
	if setVector(true) {
		t.Fatal("setVector(true) says the kernels were on")
	}
	if AVX512() != hasAVX512() {
		t.Fatalf("setVector(true) on a CPU whose AVX-512 is %v left the kernels at %v", hasAVX512(), AVX512())
	}
}
