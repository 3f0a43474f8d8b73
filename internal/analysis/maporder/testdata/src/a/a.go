// Package a is the maporder fixture: order-sensitive effects inside
// range-over-map are flagged; the sorted-keys idiom, commutative
// accumulation, and annotated sites are not.
package a

import (
	"math/rand"
	"sort"
)

type engine struct{}

func (engine) Schedule(d int, fn func()) {}

func (engine) ScheduleArg(d int, fn func(any), arg any) {}

func appendOuter(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "append to slice declared outside the loop"
		out = append(out, v)
	}
	return out
}

type bag struct{ vals []int }

func appendField(b *bag, m map[string]int) {
	for _, v := range m { // want "append to slice field declared outside the loop"
		b.vals = append(b.vals, v)
	}
}

// keyCollect is the sorted-keys idiom: collecting bare keys carries no
// order until sorted, so it is allowed.
func keyCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func scheduling(e engine, m map[string]int) {
	for _, v := range m { // want "call to Schedule"
		v := v
		e.Schedule(v, func() {})
	}
}

func schedulingArg(e engine, m map[string]int) {
	for _, v := range m { // want "call to ScheduleArg"
		e.ScheduleArg(v, deliver, v)
	}
}

func deliver(any) {}

func draws(rng *rand.Rand, m map[string]bool) int {
	n := 0
	for range m { // want "random draw"
		n += rng.Intn(3)
	}
	return n
}

// commutative accumulation does not observe iteration order: allowed.
func commutative(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// mapWrite keyed by the loop key is itself unordered: allowed.
func mapWrite(m map[string][]int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, vs := range m {
		out[k] = append([]int(nil), vs...)
	}
	return out
}

func annotated(m map[string]int) []int {
	var out []int
	//lint:allow maporder output is fully sorted below
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// sliceRange shows the analyzer only looks at maps.
func sliceRange(xs []int) []int {
	var out []int
	for _, v := range xs {
		out = append(out, v)
	}
	return out
}
