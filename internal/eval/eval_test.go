package eval

import (
	"math"
	"math/rand"
	"testing"

	"landmarkdht/internal/metric"
)

func TestTopKExact(t *testing.T) {
	data := []metric.Vector{{0}, {1}, {2}, {3}, {10}}
	queries := []metric.Vector{{0.2}, {9}}
	got, err := TopK(data, queries, 2, metric.L2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0 || got[0][1] != 1 {
		t.Fatalf("query 0 top-2 = %v", got[0])
	}
	if got[1][0] != 4 || got[1][1] != 3 {
		t.Fatalf("query 1 top-2 = %v", got[1])
	}
}

func TestTopKMatchesBruteSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]metric.Vector, 500)
	for i := range data {
		data[i] = metric.Vector{rng.Float64() * 100, rng.Float64() * 100}
	}
	queries := data[:20]
	got, err := TopK(data, queries, 10, metric.L2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		// Brute force.
		type dv struct {
			id int32
			d  float64
		}
		var all []dv
		for i, v := range data {
			all = append(all, dv{int32(i), metric.L2(q, v)})
		}
		// Selection matching TopK's tie-break (distance, then id).
		for i := 0; i < 10; i++ {
			best := i
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[best].d || (all[j].d == all[best].d && all[j].id < all[best].id) {
					best = j
				}
			}
			all[i], all[best] = all[best], all[i]
			if got[qi][i] != all[i].id {
				t.Fatalf("query %d rank %d: got %d want %d", qi, i, got[qi][i], all[i].id)
			}
		}
	}
}

func TestTopKSmallerThanK(t *testing.T) {
	data := []metric.Vector{{0}, {1}}
	got, err := TopK(data, []metric.Vector{{0}}, 10, metric.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 2 {
		t.Fatalf("got %d ids, want 2", len(got[0]))
	}
}

func TestTopKValidation(t *testing.T) {
	if _, err := TopK([]metric.Vector{{0}}, nil, 0, metric.L2, 1); err == nil {
		t.Fatal("expected k error")
	}
	if _, err := TopK(nil, nil, 1, metric.L2, 1); err == nil {
		t.Fatal("expected empty-data error")
	}
}

func TestRecall(t *testing.T) {
	if got := Recall([]int32{1, 2, 3, 4}, []int32{2, 4, 9}); got != 0.5 {
		t.Fatalf("recall = %v", got)
	}
	if got := Recall(nil, nil); got != 1 {
		t.Fatalf("empty-truth recall = %v", got)
	}
	if got := Recall([]int32{1}, nil); got != 0 {
		t.Fatalf("miss recall = %v", got)
	}
	if got := Recall([]int32{1, 2}, []int32{1, 2}); got != 1 {
		t.Fatalf("perfect recall = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 || s.Sum != 15 {
		t.Fatalf("summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Fatalf("even gini = %v", g)
	}
	skew := Gini([]int{100, 0, 0, 0})
	if skew < 0.7 {
		t.Fatalf("skewed gini = %v, want high", skew)
	}
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
	if g := Gini([]int{0, 0}); g != 0 {
		t.Fatalf("zero-load gini = %v", g)
	}
	// Gini is scale-invariant.
	a := Gini([]int{1, 2, 3, 4})
	b := Gini([]int{10, 20, 30, 40})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("gini not scale-invariant: %v vs %v", a, b)
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]metric.Vector, 10000)
	for i := range data {
		v := make(metric.Vector, 20)
		for j := range v {
			v[j] = rng.Float64()
		}
		data[i] = v
	}
	queries := data[:16]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(data, queries, 10, metric.L2, 0); err != nil {
			b.Fatal(err)
		}
	}
}
