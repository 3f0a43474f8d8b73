// Fixture for deadexport. It type-checks as "internal", a package under
// internal/; its sibling sib imports it and stands for the module.
package internal

import (
	"fmt"
	"io"
)

// Entry, called by sib, reaches everything below that is not reported.
func Entry() {
	var s Stack[int]
	s.Push(1)
	var c io.Closer = file{}
	var sh shape = square{}
	fmt.Println(Map([]int{1}, fmt.Sprint), celsius(3), c, sh)
}

func ForSibling() int { return 1 } // used by sib alone

func Unused() {} // want "func Unused is referenced by no non-test file"

var unused = 1 // want "var unused is referenced by no non-test file"

const limit = 2 // want "const limit is referenced"

type orphan struct{} // want "type orphan is referenced"

func recurse(n int) int { // want "func recurse is referenced"
	return recurse(n - 1) // a use inside its own declaration
}

// String satisfies fmt.Stringer, area the package's own shape, and
// base's Close, promoted through file, io.Closer.
type celsius float64

func (c celsius) String() string { return fmt.Sprint(float64(c)) }

func (c celsius) kelvin() float64 { return float64(c) + 273.15 } // want "method celsius.kelvin is referenced"

type shape interface{ area() float64 }

type square struct{}

func (square) area() float64 { return 1 }

type base struct{}

func (base) Close() error { return nil }

type file struct{ base }

// Used only through instances: Map[int, string], (*Stack[int]).Push.
func Map[T, U any](xs []T, f func(...any) U) (out []U) {
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Len() int { return len(s.items) } // want "method \\(\\*Stack\\[T\\]\\)\\.Len is referenced"

func Fixture() {} //lint:allow deadexport a test elsewhere uses it as a fixture
