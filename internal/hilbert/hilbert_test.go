package hilbert

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Fatal("expected dims error")
	}
	if _, err := New(2, 0); err == nil {
		t.Fatal("expected bits error")
	}
	if _, err := New(8, 9); err == nil {
		t.Fatal("expected overflow error")
	}
	c, err := New(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.dims != 2 || c.bits != 32 {
		t.Fatalf("curve = %+v", c)
	}
}

// Exhaustive bijection check on small curves.
func TestRoundTripExhaustive(t *testing.T) {
	for _, geom := range []struct{ dims, bits int }{
		{1, 6}, {2, 4}, {3, 3}, {4, 2},
	} {
		c, err := New(geom.dims, geom.bits)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(1) << uint(geom.dims*geom.bits)
		seen := make(map[uint64]bool, total)
		coords := make([]uint32, geom.dims)
		var walk func(d int)
		walk = func(d int) {
			if d == geom.dims {
				idx, err := c.Index(coords)
				if err != nil {
					t.Fatal(err)
				}
				if idx >= total {
					t.Fatalf("index %d out of range", idx)
				}
				if seen[idx] {
					t.Fatalf("index %d assigned twice (coords %v)", idx, coords)
				}
				seen[idx] = true
				back, err := c.Coords(idx)
				if err != nil {
					t.Fatal(err)
				}
				for i := range back {
					if back[i] != coords[i] {
						t.Fatalf("round trip %v -> %d -> %v", coords, idx, back)
					}
				}
				return
			}
			for v := uint32(0); v < 1<<uint(geom.bits); v++ {
				coords[d] = v
				walk(d + 1)
			}
		}
		walk(0)
		if uint64(len(seen)) != total {
			t.Fatalf("dims=%d bits=%d: %d of %d cells covered", geom.dims, geom.bits, len(seen), total)
		}
	}
}

// The defining Hilbert property: consecutive curve positions are
// adjacent grid cells (Manhattan distance exactly 1).
func TestAdjacency(t *testing.T) {
	for _, geom := range []struct{ dims, bits int }{
		{2, 5}, {3, 3},
	} {
		c, err := New(geom.dims, geom.bits)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(1) << uint(geom.dims*geom.bits)
		prev, err := c.Coords(0)
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(1); idx < total; idx++ {
			cur, err := c.Coords(idx)
			if err != nil {
				t.Fatal(err)
			}
			dist := 0
			for i := range cur {
				d := int(cur[i]) - int(prev[i])
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist != 1 {
				t.Fatalf("dims=%d bits=%d: positions %d->%d jump distance %d (%v -> %v)",
					geom.dims, geom.bits, idx-1, idx, dist, prev, cur)
			}
			prev = cur
		}
	}
}

func TestIndexValidation(t *testing.T) {
	c, _ := New(2, 4)
	if _, err := c.Index([]uint32{1}); err == nil {
		t.Fatal("expected dims error")
	}
	if _, err := c.Index([]uint32{16, 0}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := c.Coords(1 << 8); err == nil {
		t.Fatal("expected index range error")
	}
	if _, err := c.MortonIndex([]uint32{1}); err == nil {
		t.Fatal("expected morton dims error")
	}
	if _, err := c.MortonIndex([]uint32{16, 0}); err == nil {
		t.Fatal("expected morton range error")
	}
}

func TestMortonKnown(t *testing.T) {
	c, _ := New(2, 2)
	// Z-order on a 4x4 grid: (x,y) -> interleave bits x1 y1 x0 y0 with
	// x as coordinate 0 (most significant in each pair).
	cases := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3},
		{2, 2, 12}, {3, 3, 15},
	}
	for _, tc := range cases {
		got, err := c.MortonIndex([]uint32{tc.x, tc.y})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("morton(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

// Hilbert ordering must cluster ranges better than Morton: walking a
// random axis-aligned box in key order produces fewer "runs" of
// consecutive-but-far keys. We measure the classic clustering number:
// the count of maximal contiguous key runs covering the box (lower is
// better; Hilbert is known to beat Z-order on average).
func TestHilbertClustersBetterThanMorton(t *testing.T) {
	c, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var hTotal, mTotal int
	for trial := 0; trial < 50; trial++ {
		x0 := rng.Uint32() % 200
		y0 := rng.Uint32() % 200
		w := 4 + rng.Uint32()%24
		h := 4 + rng.Uint32()%24
		var hKeys, mKeys []uint64
		for x := x0; x < x0+w && x < 256; x++ {
			for y := y0; y < y0+h && y < 256; y++ {
				hk, err := c.Index([]uint32{x, y})
				if err != nil {
					t.Fatal(err)
				}
				mk, _ := c.MortonIndex([]uint32{x, y})
				hKeys = append(hKeys, hk)
				mKeys = append(mKeys, mk)
			}
		}
		hTotal += runs(hKeys)
		mTotal += runs(mKeys)
	}
	if hTotal >= mTotal {
		t.Fatalf("hilbert runs %d not fewer than morton %d", hTotal, mTotal)
	}
}

// runs counts maximal runs of consecutive integers.
func runs(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1]+1 {
			n++
		}
	}
	return n
}

func TestRoundTripRandomLarge(t *testing.T) {
	c, err := New(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		coords := make([]uint32, 5)
		for i := range coords {
			coords[i] = rng.Uint32() % (1 << 12)
		}
		idx, err := c.Index(coords)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.Coords(idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if back[i] != coords[i] {
				t.Fatalf("round trip failed: %v -> %d -> %v", coords, idx, back)
			}
		}
	}
}

func BenchmarkHilbertIndex(b *testing.B) {
	c, _ := New(5, 12)
	coords := []uint32{100, 2000, 3000, 50, 4000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Index(coords); err != nil {
			b.Fatal(err)
		}
	}
}
