package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"landmarkdht/internal/metric"
)

// refineReference is refineLocal as one Dist call per candidate: the
// hits of a range query (dist <= r) or every candidate of a top-k one,
// in candidate order, cut to the k nearest by finish's total order.
func refineReference(aq *activeQuery, cands []Entry) []Result {
	var local []Result
	for _, e := range cands {
		d := aq.ix.Dist(aq.payload, e.Obj)
		if aq.topK == 0 && !(d <= aq.r) {
			continue
		}
		local = append(local, Result{Obj: e.Obj, Dist: d})
	}
	if aq.topK > 0 && len(local) > aq.topK {
		sort.Slice(local, func(i, j int) bool { return nearer(local[i], local[j]) })
		local = local[:aq.topK]
	}
	return local
}

// sameResults says whether two result lists name the same objects in
// the same order with the same distance bits.
func sameResults(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool {
		return x.Obj == y.Obj && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
	})
}

// TestRefineLocalMatchesDist holds refineLocal, through the L2 slab's
// batch refiner and through DeployIndex's loop over Dist, to one Dist
// call per candidate: the same objects in the same order with the same
// distance bits, on the range path and the top-k path, for candidate
// lists shorter than a batch, a batch long, and runs of batches with a
// short last one, repeats and equidistant objects included.
func TestRefineLocalMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, dim = 300, 5
	data := make([]metric.Vector, n)
	for i := range data {
		data[i] = make(metric.Vector, dim)
		for j := range data[i] {
			data[i][j] = float64(rng.Intn(8)) // coarse: many equal distances
		}
	}
	dist := func(payload any, obj ObjectID) float64 { return metric.L2(payload.(metric.Vector), data[obj]) }
	slab := metric.NewL2Slab(metric.EuclideanSpace("v", dim, 0, 8), data)
	if slab == nil {
		t.Fatal("no slab for a Euclidean space")
	}
	for _, c := range []struct {
		name   string
		refine func(any, []int32, float64, []float64) uint64
	}{{"slab", slab.Refine}, {"dist", distRefiner(dist)}} {
		name, ix := c.name, &Index{Dist: dist, Refine: c.refine}
		b := new(refineBatch)
		for _, ncands := range []int{0, 1, 63, 64, 65, 128, 200, 611} {
			cands := make([]Entry, ncands)
			for i := range cands {
				cands[i] = Entry{Obj: ObjectID(rng.Intn(n))}
			}
			q := make(metric.Vector, dim)
			for j := range q {
				q[j] = rng.Float64() * 8
			}
			for _, r := range []float64{0, 3, 6, math.Inf(1)} {
				aq := &activeQuery{ix: ix, payload: q, r: r}
				if got, want := refineLocal(aq, cands, b), refineReference(aq, cands); !sameResults(got, want) {
					t.Fatalf("%s, %d candidates, r=%v: got %v, want %v", name, ncands, r, got, want)
				}
			}
			for _, k := range []int{1, 10, 64, 100, 1000} {
				aq := &activeQuery{ix: ix, payload: q, r: 3, topK: k}
				if got, want := refineLocal(aq, cands, b), refineReference(aq, cands); !sameResults(got, want) {
					t.Fatalf("%s, %d candidates, top %d: got %v, want %v", name, ncands, k, got, want)
				}
			}
		}
	}
}

// TestDeployIndexFillsRefine: an index deployed with Dist alone answers
// through a loop over Dist, and the caller's Index is left as it was.
func TestDeployIndexFillsRefine(t *testing.T) {
	f := buildFixture(t, 4, 50, 3, false)
	ix := &Index{Name: "dist-only", Part: f.sys.index["test-l2"].Part,
		Dist: func(any, ObjectID) float64 { return 2 }}
	if err := f.sys.DeployIndex(ix); err != nil {
		t.Fatal(err)
	}
	if ix.Refine != nil {
		t.Fatal("DeployIndex set the caller's Refine")
	}
	dist := make([]float64, 3)
	if hits := f.sys.index["dist-only"].Refine(nil, []int32{0, 1, 2}, 2, dist); hits != 0b111 || !slices.Equal(dist, []float64{2, 2, 2}) {
		t.Fatalf("deployed Refine: hits %b, dist %v", hits, dist)
	}
}
