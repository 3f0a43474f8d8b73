package netrt

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

// checkBuiltColumns holds a built dataset against a serial rebuild of
// the same entries from ref, the corpus' objects in corpus order as the
// test drew them itself: the parallel map-and-hash, the radix sort and
// the in-place permutations must leave every entry's key what mapping
// its object alone gives, and its stored row that point's float32
// rounding, in ascending key order with ties by id, under the signature
// of the corpus-order keys — and the object found at a sorted position
// must be the one whose key and point are there.
func checkBuiltColumns[T any](t *testing.T, cfg DataConfig, d *dataset[T], ref []T) {
	t.Helper()
	c := &d.cols
	n := len(ref)
	if d.n != n || len(c.keys) != n || len(c.ids) != n || len(c.pos) != n || len(c.pts) != n*c.k {
		t.Fatalf("column lengths %d/%d/%d/%d/%d for %d entries of %d coordinates", d.n, len(c.keys), len(c.ids), len(c.pos), len(c.pts), n, c.k)
	}
	serial := make([]lph.Key, n)
	for i, o := range ref {
		// ref shares no memory with the dataset, so this is the point
		// the embedding gives now, after seal moved the objects. The
		// stored one was computed before: landmarks that still viewed
		// the storage would have changed under the move, and the two
		// would differ everywhere.
		p := d.emb.Map(o)
		serial[i] = d.part.Hash(p)
		if got := d.Point(i, make([]float64, c.k)); !slices.Equal(got, p) {
			t.Fatalf("entry %d: point %v, mapping it gives %v", i, got, p)
		}
		if d.Key(i) != d.part.MapPoint(p) {
			t.Fatalf("entry %d: key %x, mapping it gives %x", i, d.Key(i), d.part.MapPoint(p))
		}
		j := int(c.pos[i])
		for x, v := range c.rows(j, 1) {
			if v != float32(p[x]) {
				t.Fatalf("entry %d: stored row %v, its point %v", i, c.rows(j, 1), p)
			}
		}
		if c.ids[j] != int32(i) {
			t.Fatalf("pos[%d] = %d but ids[%d] = %d", i, j, j, c.ids[j])
		}
		if got := d.at(j); !reflect.DeepEqual(got, o) {
			t.Fatalf("position %d holds object %v, entry %d is %v", j, got, i, o)
		}
	}
	for j := 1; j < n; j++ {
		if c.keys[j-1] > c.keys[j] || c.keys[j-1] == c.keys[j] && c.ids[j-1] >= c.ids[j] {
			t.Fatalf("positions %d,%d out of (key, id) order: (%x,%d) (%x,%d)", j-1, j, c.keys[j-1], c.ids[j-1], c.keys[j], c.ids[j])
		}
	}
	if want := corpusSig(protoVersion, cfg, d.part, serial); d.sig != want {
		t.Fatalf("signature %x, corpus-order keys give %x", d.sig, want)
	}
}

func TestBuiltColumnsMatchSerialBuild(t *testing.T) {
	euclid := testData()
	c, err := buildCorpus(euclid)
	if err != nil {
		t.Fatal(err)
	}
	// One allocation per vector, component by component: the draws of
	// the layout the slab replaced.
	rng := corpusRand(euclid)
	vecs := make([]metric.Vector, euclid.Objects)
	for i := range vecs {
		vecs[i] = make(metric.Vector, euclid.Dim)
		for j := range vecs[i] {
			vecs[i][j] = rng.Float64()
		}
	}
	ed := c.(*dataset[metric.Vector])
	checkBuiltColumns(t, euclid, ed, vecs)
	// The vectors are the rows of one slab, each view cut at its row's
	// end, and the landmarks are not among them.
	dim := euclid.Dim
	addr := func(v metric.Vector) uintptr { return uintptr(unsafe.Pointer(&v[0])) }
	for j := 0; j+1 < ed.n; j++ {
		row, next := ed.at(j), ed.at(j+1)
		if len(row) != dim || cap(row) != dim || addr(next)-addr(row) != uintptr(dim)*unsafe.Sizeof(row[0]) {
			t.Fatalf("position %d: a view of %d/%d floats, %d bytes before the next", j, len(row), cap(row), addr(next)-addr(row))
		}
		keep := next[0]
		if grown := append(row, keep+1); next[0] != keep || addr(grown) == addr(row) {
			t.Fatalf("position %d: an append to its view wrote the next row", j)
		}
	}
	lo, hi := addr(ed.at(0)), addr(ed.at(ed.n-1))
	for i, lm := range ed.emb.Landmarks() {
		if a := addr(lm); a >= lo && a <= hi {
			t.Fatalf("landmark %d views the slab", i)
		}
	}

	// Edit distances are small integers: the keys collide by the dozen,
	// so the id tie-break and duplicate keys are exercised for real.
	edit := DataConfig{Metric: "edit", Seed: 3, Objects: 700, Landmarks: 3}
	edit.fillDefaults()
	c, err = buildCorpus(edit)
	if err != nil {
		t.Fatal(err)
	}
	rng = corpusRand(edit)
	strs := make([]string, edit.Objects)
	for i := range strs {
		strs[i] = string(c.RandomQuery(rng))
	}
	d := c.(*dataset[string])
	checkBuiltColumns(t, edit, d, strs)
	if keys := slices.Compact(slices.Clone(d.cols.keys)); len(keys) == len(d.cols.keys) {
		t.Fatal("the edit corpus has no duplicate keys: the tie-break is not exercised")
	}
}

// ringScanData is bench's ring-scan corpus.
var ringScanData = DataConfig{Metric: "euclid", Seed: 1, Objects: 131072, Dim: 8, Landmarks: 6}

// TestCorpusSignatureStable pins the handshake signature of four
// corpora — testData, the edit corpus above, bench's ring-selective and
// ring-scan — to what the commit before the objects moved into key order
// computes (ring-scan's to what the commit before Hash lost its branches
// computes). The
// signature covers every key in corpus order, so a draw that changed
// order, or a landmark that changed under the permutation, shows here
// even though a ring of one build would still agree with itself. That
// commit spoke protocol version 3, so the pins are the corpora as version
// 3 signs them; what a node presents is the same keys under protoVersion.
func TestCorpusSignatureStable(t *testing.T) {
	for _, tc := range []struct {
		cfg DataConfig
		sig uint64
	}{
		{testData(), 0xa33e2c25e2f97fbb},
		{DataConfig{Metric: "edit", Seed: 3, Objects: 700, Landmarks: 3}, 0x7b3537cd71e3842f},
		{DataConfig{Metric: "euclid", Seed: 1, Objects: 8192, Dim: 8, Landmarks: 6}, 0x9b68712dd3be061},
		{ringScanData, 0x7d13e5f921f65fa4},
	} {
		c, err := buildCorpus(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols := c.Cols()
		serial := make([]lph.Key, len(cols.keys))
		for j, id := range cols.ids {
			serial[id] = cols.keys[j]
		}
		tc.cfg.fillDefaults()
		if got := corpusSig(3, tc.cfg, c.Part(), serial); got != tc.sig {
			t.Fatalf("%+v: version 3 signs it %#x, want %#x", tc.cfg, got, tc.sig)
		}
		if want := corpusSig(protoVersion, tc.cfg, c.Part(), serial); c.Sig() != want {
			t.Fatalf("%+v: the corpus presents %#x, its keys sign as %#x", tc.cfg, c.Sig(), want)
		}
	}
}

// TestBruteForceMatchesByIDReference: BruteForce walks the corpus in key
// order; what it returns is still the answer in id order, every distance
// the bits a walk by id computes from the encoded objects.
func TestBruteForceMatchesByIDReference(t *testing.T) {
	for _, tc := range []struct {
		cfg DataConfig
		r   float64
	}{
		{testData(), 0.4},
		{DataConfig{Metric: "edit", Seed: 3, Objects: 700, Landmarks: 3}, 4},
	} {
		ds, err := BuildDataset(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for q := 0; q < 8; q++ {
			qobj := ds.RandomQuery(rng)
			var want []ResultEntry
			for i := 0; i < ds.N(); i++ {
				d, err := ds.Distance(qobj, objAt(ds.c, int(ds.c.Cols().pos[i])))
				if err != nil {
					t.Fatal(err)
				}
				if d <= tc.r {
					want = append(want, ResultEntry{Obj: int32(i), Dist: d})
				}
			}
			got, err := ds.BruteForce(qobj, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || len(want) == ds.N() || !slices.Equal(got, want) {
				t.Fatalf("%s query %d: brute force returns %d entries, the walk by id %d of %d", tc.cfg.Metric, q, len(got), len(want), ds.N())
			}
		}
	}
}

// A protocol-version change must change the handshake signature over
// the very same corpus, so that old and new binaries refuse to link
// (TestCorpusSignatureMismatch is the refusal itself).
func TestProtoVersionChangesSignature(t *testing.T) {
	cfg := testData()
	c, err := buildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := c.Cols().keys
	if corpusSig(protoVersion, cfg, c.Part(), keys) == corpusSig(protoVersion+1, cfg, c.Part(), keys) {
		t.Fatal("two protocol versions sign the same corpus identically")
	}
}

// objAt encodes the corpus object at sorted position j, as a client
// sends one.
func objAt(c corpus, j int) []byte {
	switch d := c.(type) {
	case *dataset[metric.Vector]:
		return d.enc(nil, d.at(j))
	case *dataset[string]:
		return d.enc(nil, d.at(j))
	}
	panic(fmt.Sprintf("objAt: a corpus of type %T", c))
}

// randomColumns hashes random points under part and sorts them: what a
// dataset's seal leaves, without a dataset. The coordinates are
// sixteenths, which float32 holds exactly, so point widens a stored row
// back to the point its key was hashed from.
func randomColumns(rng *rand.Rand, part *lph.Partitioner, n int) *columns {
	k := part.K()
	c := &columns{k: k, keys: make([]lph.Key, n), pts: make([]float32, n*k)}
	p := make([]float64, k)
	for i := 0; i < n; i++ {
		for j := range p {
			p[j] = float64(rng.Intn(17)) / 16 // coarse: duplicate keys, midpoints, bounds
			c.pts[i*k+j] = float32(p[j])
		}
		c.keys[i] = part.Hash(p)
	}
	c.sortByKey(func([]int32) {})
	return c
}

// point widens the stored row at sorted position j to float64.
func (c *columns) point(j int) []float64 {
	p := make([]float64, c.k)
	for x, v := range c.rows(j, 1) {
		p[x] = float64(v)
	}
	return p
}

// sortByKeyReference is the comparison sort radixSort replaced: the
// (key, id) pairs sorted by key, ties by id.
func sortByKeyReference(keys []lph.Key) ([]lph.Key, []int32) {
	type pair struct {
		key lph.Key
		id  int32
	}
	pairs := make([]pair, len(keys))
	for i, k := range keys {
		pairs[i] = pair{k, int32(i)}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
	sorted, ids := make([]lph.Key, len(keys)), make([]int32, len(keys))
	for j, p := range pairs {
		sorted[j], ids[j] = p.key, p.id
	}
	return sorted, ids
}

// The radix sort must put the columns in the order the (key, id)
// comparison sort gives, ties included: points out of bounds clamp onto
// the boundary and NaN coordinates give 0 bits, so such points collide
// on a handful of keys, beside coarse in-bounds ones that collide too.
func TestRadixOrderMatchesComparisonSort(t *testing.T) {
	part, err := lph.New(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	coords := []float64{math.NaN(), -5, 7, math.Inf(1), math.Inf(-1), 0, 1, 0.5}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 300, 5000} {
		c := &columns{k: 3, keys: make([]lph.Key, n), pts: make([]float32, 3*n)}
		p := make([]float64, 3)
		for i := 0; i < n; i++ {
			for j := range p {
				if rng.Intn(3) == 0 {
					p[j] = rng.Float64()
				} else {
					p[j] = coords[rng.Intn(len(coords))]
				}
				c.pts[i*3+j] = float32(p[j])
			}
			c.keys[i] = part.Hash(p)
		}
		pts := slices.Clone(c.pts)
		wantKeys, wantIDs := sortByKeyReference(c.keys)
		c.sortByKey(func([]int32) {})
		if !slices.Equal(c.keys, wantKeys) || !slices.Equal(c.ids, wantIDs) {
			t.Fatalf("n=%d: radix order differs from the (key, id) sort", n)
		}
		for j, id := range c.ids {
			if c.pos[id] != int32(j) {
				t.Fatalf("n=%d: pos[%d] = %d, want %d", n, id, c.pos[id], j)
			}
			for d, x := range c.rows(j, 1) {
				if math.Float32bits(x) != math.Float32bits(pts[int(id)*3+d]) {
					t.Fatalf("n=%d: position %d holds %v, entry %d was %v", n, j, c.point(j), id, pts[int(id)*3:int(id)*3+3])
				}
			}
		}
	}
	// Keys that differ in every byte, in some bytes and in none.
	for _, spread := range []uint64{^uint64(0), 0xff00ff0000ff00ff, 0} {
		keys := make([]lph.Key, 4000)
		for i := range keys {
			keys[i] = rng.Uint64()&spread | 0x1200340056007800&^spread
			if i%5 == 0 && i > 0 {
				keys[i] = keys[rng.Intn(i)]
			}
		}
		wantKeys, wantIDs := sortByKeyReference(keys)
		ids := make([]int32, len(keys))
		for i := range ids {
			ids[i] = int32(i)
		}
		gotKeys, gotIDs, _ := radixSort(slices.Clone(keys), make([]lph.Key, len(keys)), ids, make([]int32, len(keys)))
		if !slices.Equal(gotKeys, wantKeys) || !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("spread %#x: radix order differs from the (key, id) sort", spread)
		}
	}
}

// The in-place permutation must carry every point to its key's sorted
// position — cycles of every length, fixed points and duplicates.
func TestSortByKeyKeepsPointsWithKeys(t *testing.T) {
	part, err := lph.New(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 33, 1000} {
		c := randomColumns(rng, part, n)
		for j := 0; j < n; j++ {
			if got := part.Hash(c.point(j)); got != c.keys[j] {
				t.Fatalf("n=%d: position %d holds key %x and a point hashing to %x", n, j, c.keys[j], got)
			}
		}
		if !slices.IsSorted(c.keys) {
			t.Fatalf("n=%d: keys not ascending", n)
		}
	}
}

// Ownership on a rotated ring. The columns are sorted by unrotated key,
// so a prefix is one run whatever φ is (Region.Run) and the walk of its
// leaf boxes needs no special case; only the arc (pred, me] can wrap —
// at the ring's zero, or where the rotation maps the top of the key
// space — and it is then exactly two runs.
func TestArcAndDescentUnderRotation(t *testing.T) {
	base, err := lph.New(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, phi := range []lph.Key{0, 1, 0x9e3779b97f4a7c15, ^lph.Key(0)} {
		part := base.WithRotation(phi)
		c := randomColumns(rng, part, 500)
		pick := func() uint64 {
			if rng.Intn(2) == 0 {
				return part.Ring(c.keys[rng.Intn(len(c.keys))]) // exactly on an entry
			}
			return rng.Uint64()
		}
		wrapped := 0
		for i := 0; i < 400; i++ {
			pred, me := pick(), pick()
			if i%50 == 0 {
				pred = me
			}
			runs := c.arc(part, pred, me)
			if runs[1].b > runs[1].a {
				wrapped++
				if runs[0].b > runs[1].a {
					t.Fatalf("phi %x (%x, %x]: runs %v overlap", phi, pred, me, runs)
				}
			}
			for j, key := range c.keys {
				in := j >= runs[0].a && j < runs[0].b || j >= runs[1].a && j < runs[1].b
				// key ∈ (pred, me] on the ring ⇔ its distance past pred is
				// in [1, me-pred]; a one-member ring owns everything.
				want := pred == me || part.Ring(key)-pred-1 < me-pred
				if in != want {
					t.Fatalf("phi %x (%x, %x]: position %d (ring key %x) in runs %v = %v, want %v", phi, pred, me, j, part.Ring(key), runs, in, want)
				}
			}
		}
		if wrapped == 0 {
			t.Fatalf("phi %x: no arc ever wrapped", phi)
		}
		for i := 0; i < 100; i++ {
			cube := make([]lph.Bounds, part.K())
			for j := range cube {
				lo, hi := rng.Float64(), rng.Float64()
				cube[j] = lph.Bounds{Lo: min(lo, hi), Hi: max(lo, hi)}
			}
			reg, err := query.New(part, cube)
			if err != nil {
				t.Fatal(err)
			}
			var got, want []int
			var box query.Box32
			box.Set(reg.Cube)
			a, b := reg.Run(c.keys)
			c.boxes.Walk(box.Outer(), a, b, func(a, b int) {
				for j := a; j < b; j++ {
					if outer, inner := box.Mask(c.rows(j, 1), 1); inner == 1 || outer == 1 && reg.Contains(c.point(j)) {
						got = append(got, j)
					}
				}
			})
			for j := range c.keys {
				if reg.Contains(c.point(j)) {
					want = append(want, j)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("phi %x: the walk found %d entries, the cube contains %d", phi, len(got), len(want))
			}
		}
	}
}

// BenchmarkCorpusBuild builds bench's ring-scan corpus, what every
// lmnode does at boot and at every restart: the objects drawn, the
// landmarks picked, every object mapped and hashed, the columns sorted
// into key order and their leaf boxes built. Like a node it builds the
// columns in their mapping (bootCorpus), and releases each build's.
func BenchmarkCorpusBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, mem, err := bootCorpus(ringScanData)
		if err != nil {
			b.Fatal(err)
		}
		if err := mem.release(); err != nil {
			b.Fatal(err)
		}
	}
}
