package core

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// scanReference is Scan's definition: Region.Contains over the stored
// entries.
func scanReference(st Store, index string, r query.Region) []Entry {
	var out []Entry
	st.View(index, func(_ []lph.Key, entries []Entry) {
		for _, e := range entries {
			if r.Contains(e.Point) {
				out = append(out, e)
			}
		}
	})
	return out
}

// imageOf is the MemStore a store reads from: the store itself, or a
// WALStore's image. Scan, ScanIDs that hands out entries, is a MemStore
// method, not a Store one.
func imageOf(st Store) *MemStore {
	if ws, ok := st.(*WALStore); ok {
		return ws.mem
	}
	return st.(*MemStore)
}

// viewCopy copies one index's keys and entries out through View, nil
// when it holds none.
func viewCopy(st Store, index string) (keys []lph.Key, entries []Entry) {
	st.View(index, func(k []lph.Key, e []Entry) {
		keys, entries = append(keys, k...), append(entries, e...)
	})
	return keys, entries
}

// entriesEqual: the same objects in the same order, their points equal
// bit for bit — a NaN coordinate equals itself, and a decoded point of
// no coordinates (nil) equals a stored empty one.
func entriesEqual(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Obj == y.Obj && slices.EqualFunc(x.Point, y.Point, func(p, q float64) bool {
			return math.Float64bits(p) == math.Float64bits(q)
		})
	})
}

// sameEntrySet compares two scans as multisets: Scan promises each match
// once, in no particular order. Entries are sorted by object, then by
// their points' bits, since a region may hold one object twice.
func sameEntrySet(got, want []Entry) bool {
	byObj := func(es []Entry) []Entry {
		es = slices.Clone(es)
		slices.SortFunc(es, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(a.Obj, b.Obj), slices.CompareFunc(a.Point, b.Point, func(x, y float64) int {
				return cmp.Compare(math.Float64bits(x), math.Float64bits(y))
			}))
		})
		return es
	}
	return entriesEqual(byObj(got), byObj(want))
}

// checkScan holds one Scan to the reference.
func checkScan(t *testing.T, st Store, index string, cube []lph.Bounds, after string) {
	t.Helper()
	r := query.Region{Cube: cube}
	want := scanReference(st, index, r)
	got := imageOf(st).Scan(index, r, []Entry{{Obj: -1}})
	if len(got) < 1 || got[0].Obj != -1 {
		t.Fatalf("after %s: Scan(%q) did not append to its buffer", after, index)
	}
	if !sameEntrySet(got[1:], want) {
		t.Fatalf("after %s: Scan(%q, %v) = %v, Contains over View says %v", after, index, cube, got[1:], want)
	}
}

// checkScanIDs holds one ScanIDs to the ids of Scan's entries, in Scan's
// order.
func checkScanIDs(t *testing.T, st Store, index string, cube []lph.Bounds, after string) {
	t.Helper()
	r := query.Region{Cube: cube}
	var want []int32
	for _, e := range imageOf(st).Scan(index, r, nil) {
		want = append(want, int32(e.Obj))
	}
	got := st.ScanIDs(index, r, []int32{-1})
	if len(got) < 1 || got[0] != -1 {
		t.Fatalf("after %s: ScanIDs(%q) did not append to its buffer", after, index)
	}
	if !slices.Equal(got[1:], want) {
		t.Fatalf("after %s: ScanIDs(%q, %v) = %v, Scan's entries are %v", after, index, cube, got[1:], want)
	}
}

// oddFloats are the values a comparison treats unlike the rest.
var oddFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// checkScans compares Scan with the reference, and ScanIDs with Scan,
// on every index of the store: random cubes, the whole space, a zero-width cube on a stored
// point, a cube of another length than the index's points, and cubes
// with inverted, infinite and NaN bounds.
func checkScans(t *testing.T, st Store, names []string, dims map[string]int, rng *rand.Rand, after string) {
	t.Helper()
	for _, index := range names {
		k := dims[index]
		random := func() []lph.Bounds {
			c := make([]lph.Bounds, k)
			for j := range c {
				x, w := rng.Float64(), rng.Float64()*0.6
				c[j] = lph.Bounds{Lo: x - w, Hi: x + w}
			}
			return c
		}
		var cubes [][]lph.Bounds
		for i := 0; i < 4; i++ {
			cubes = append(cubes, random())
		}
		whole := make([]lph.Bounds, k)
		for j := range whole {
			whole[j] = lph.Bounds{Lo: -1, Hi: 2}
		}
		everything := make([]lph.Bounds, k)
		for j := range everything {
			everything[j] = lph.Bounds{Lo: math.Inf(-1), Hi: math.Inf(1)}
		}
		cubes = append(cubes, whole, everything, make([]lph.Bounds, k+1))
		if k > 0 {
			inverted := random()
			j := rng.Intn(k)
			inverted[j].Lo, inverted[j].Hi = inverted[j].Hi, inverted[j].Lo
			odd := random()
			if j = rng.Intn(k); rng.Intn(2) == 0 {
				odd[j].Lo = oddFloats[rng.Intn(len(oddFloats))]
			} else {
				odd[j].Hi = oddFloats[rng.Intn(len(oddFloats))]
			}
			cubes = append(cubes, inverted, odd)
		}
		st.View(index, func(_ []lph.Key, entries []Entry) {
			if len(entries) == 0 {
				return
			}
			on := make([]lph.Bounds, k)
			for j, x := range entries[rng.Intn(len(entries))].Point {
				on[j] = lph.Bounds{Lo: x, Hi: x}
			}
			cubes = append(cubes, on)
		})
		for _, c := range cubes {
			checkScan(t, st, index, c, after)
			checkScanIDs(t, st, index, c, after)
		}
	}
}

// refStore is what a store's contents were before regions had a scan
// index, and what they must still be: per index, keys and entries in
// storage order — an append goes to the end, Delete moves the last entry
// into the hole, ExtractUpTo compacts the survivors in place.
type refStore map[string]*refRegion

type refRegion struct {
	keys    []lph.Key
	entries []Entry
}

func (r refStore) put(index string, keys []lph.Key, entries []Entry) {
	if len(keys) == 0 {
		return
	}
	if r[index] == nil {
		r[index] = &refRegion{}
	}
	r[index].keys = append(r[index].keys, keys...)
	r[index].entries = append(r[index].entries, entries...)
}

func (r refStore) delete(index string, key lph.Key, obj ObjectID) {
	reg := r[index]
	if reg == nil {
		return
	}
	for i, k := range reg.keys {
		if k == key && reg.entries[i].Obj == obj {
			last := len(reg.keys) - 1
			reg.keys[i], reg.entries[i] = reg.keys[last], reg.entries[last]
			reg.keys, reg.entries = reg.keys[:last], reg.entries[:last]
			return
		}
	}
}

func (r refStore) extractUpTo(index string, base, split lph.Key) (outK []lph.Key, outE []Entry) {
	reg := r[index]
	if reg == nil {
		return nil, nil
	}
	var keptK []lph.Key
	var keptE []Entry
	for i, k := range reg.keys {
		if k-base <= split-base {
			outK, outE = append(outK, k), append(outE, reg.entries[i])
		} else {
			keptK, keptE = append(keptK, k), append(keptE, reg.entries[i])
		}
	}
	reg.keys, reg.entries = keptK, keptE
	return outK, outE
}

// storeStep is one step of interleave: the operation just made, and for
// ExtractUpTo what the store and the reference handed out.
type storeStep struct {
	op          string
	handedOut   bool
	gotK, wantK []lph.Key
	gotE, wantE []Entry
}

// interleave drives every mutator of one store in a random interleaving
// — the WALStore through closes and reopens, with compactions in between
// — mirrors each on a refStore, and calls check after every step. Ring
// keys are a prefix of the point's LPH key, as a deployed index's are
// (so boxes are tight enough to pass rows over) with plenty of ties; one
// coordinate in sixteen is NaN or infinite.
func interleave(t *testing.T, durable bool, rng *rand.Rand, check func(st Store, ref refStore, step storeStep)) {
	names, dims := interleaveNames, interleaveDims
	t.Helper()
	dir := t.TempDir()
	var st Store = NewMemStore()
	if durable {
		st = openTestWALStore(t, dir, 16)
	}
	ref := refStore{}
	const keyBits = 12
	parts := map[int]*lph.Partitioner{}
	for _, k := range dims {
		if k > 0 {
			p, err := lph.New(k, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			parts[k] = p
		}
	}
	nextObj := ObjectID(0)
	entry := func(k int) (lph.Key, Entry) {
		p := make([]float64, k)
		for j := range p {
			if p[j] = rng.Float64(); rng.Intn(16) == 0 {
				p[j] = oddFloats[rng.Intn(len(oddFloats))]
			}
		}
		nextObj++
		key := lph.Key(rng.Intn(1 << keyBits))
		if k > 0 {
			key = parts[k].Hash(p) >> (lph.M - keyBits)
		}
		return key, Entry{Obj: nextObj, Point: p}
	}
	batch := func(k, n int) ([]lph.Key, []Entry) {
		keys, entries := make([]lph.Key, n), make([]Entry, n)
		for i := range keys {
			keys[i], entries[i] = entry(k)
		}
		return keys, entries
	}
	must := func(op string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	for i := 0; i < 600; i++ {
		index := names[rng.Intn(len(names))]
		k := dims[index]
		var step storeStep
		switch x := rng.Intn(20); {
		case x < 6:
			step.op = "Put"
			key, e := entry(k)
			must(step.op, st.Put(index, key, e))
			ref.put(index, []lph.Key{key}, []Entry{e})
		case x < 9:
			step.op = "PutBatch"
			keys, entries := batch(k, rng.Intn(40))
			must(step.op, st.PutBatch(index, keys, entries))
			ref.put(index, keys, entries)
		case x < 14:
			step.op = "Delete"
			keys, entries := viewCopy(st, index)
			if len(keys) > 0 {
				i := rng.Intn(len(keys))
				ok, err := st.Delete(index, keys[i], entries[i].Obj)
				must(step.op, err)
				if !ok {
					t.Fatalf("Delete(%q, %d, %d) found nothing", index, keys[i], entries[i].Obj)
				}
				ref.delete(index, keys[i], entries[i].Obj)
			}
		case x < 16:
			step.op = "ExtractUpTo"
			base := lph.Key(rng.Intn(1 << keyBits))
			split := base + lph.Key(rng.Intn(1<<(keyBits-2)))
			var err error
			step.gotK, step.gotE, err = st.ExtractUpTo(index, base, split)
			must(step.op, err)
			step.wantK, step.wantE = ref.extractUpTo(index, base, split)
			step.handedOut = true
		case x < 17:
			step.op = "ApplyRegion"
			keys, entries := batch(k, rng.Intn(60))
			must(step.op, st.ApplyRegion(index, keys, entries))
			delete(ref, index)
			ref.put(index, keys, entries)
		case x < 18:
			step.op = "ExtractUpTo(whole ring)"
			var err error
			step.gotK, step.gotE, err = st.ExtractUpTo(index, 0, ^lph.Key(0))
			must(step.op, err)
			step.wantK, step.wantE = ref.extractUpTo(index, 0, ^lph.Key(0))
			step.handedOut = true
		case x < 19:
			step.op = "DropIndex"
			must(step.op, st.DropIndex(index))
			delete(ref, index)
		default:
			step.op = "reopen"
			if durable {
				must("Close", st.Close())
				st = openTestWALStore(t, dir, 16)
			}
		}
		check(st, ref, step)
	}
	must("Close", st.Close())
}

var (
	interleaveDims  = map[string]int{"one": 1, "three": 3, "six": 6, "none": 0}
	interleaveNames = []string{"none", "one", "six", "three"}
)

// TestScanMatchesContains holds Scan to Region.Contains over View, and
// ScanIDs to Scan, after every step of both stores' interleavings: the
// scan index has to follow the entries through every mutator, and its
// boxes may pass over no row that Contains accepts, whatever the floats.
func TestScanMatchesContains(t *testing.T) {
	for _, durable := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		interleave(t, durable, rng, func(st Store, _ refStore, step storeStep) {
			checkScans(t, st, interleaveNames, interleaveDims, rng, step.op)
		})
	}
}

// TestStorageOrderUnchanged: the scan index sits beside the entries and
// never reorders them. View and ExtractUpTo — over part of the ring or
// all of it — hand out what a store without the index did, in that order — which transfer
// chunk an entry rides in depends on it, and with it the transcripts of
// the paper's figures (testdata/golden). Scans run between the steps, as
// they do in a deployment: that is when the index is built.
func TestStorageOrderUnchanged(t *testing.T) {
	for _, durable := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		interleave(t, durable, rng, func(st Store, ref refStore, step storeStep) {
			if step.handedOut && (!slices.Equal(step.gotK, step.wantK) || !entriesEqual(step.gotE, step.wantE)) {
				t.Fatalf("%s handed out %v %v, the reference %v %v", step.op, step.gotK, step.gotE, step.wantK, step.wantE)
			}
			for _, index := range interleaveNames {
				var wantK []lph.Key
				var wantE []Entry
				if reg := ref[index]; reg != nil {
					wantK, wantE = reg.keys, reg.entries
				}
				viewed := false
				st.View(index, func(keys []lph.Key, entries []Entry) {
					viewed = true
					if !slices.Equal(keys, wantK) || !entriesEqual(entries, wantE) {
						t.Fatalf("after %s: View(%q) = %v %v, the reference holds %v %v", step.op, index, keys, entries, wantK, wantE)
					}
				})
				if !viewed && len(wantK) > 0 {
					t.Fatalf("after %s: View(%q) showed nothing, the reference holds %v", step.op, index, wantK)
				}
				if st.Size(index) != len(wantK) {
					t.Fatalf("after %s: Size(%q) = %d, the reference holds %d", step.op, index, st.Size(index), len(wantK))
				}
			}
			if rng.Intn(2) == 0 {
				checkScans(t, st, interleaveNames, interleaveDims, rng, step.op)
			}
		})
	}
}

// hashedRegion fills one index of a store with n uniform points of k
// coordinates under their own LPH keys, in random (not key) order.
func hashedRegion(t testing.TB, st Store, index string, n, k int, rng *rand.Rand) {
	t.Helper()
	part, err := lph.New(k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys, entries := make([]lph.Key, n), make([]Entry, n)
	for i := range entries {
		p := make([]float64, k)
		for j := range p {
			p[j] = rng.Float64()
		}
		keys[i], entries[i] = part.Hash(p), Entry{Obj: ObjectID(i), Point: p}
	}
	if err := st.PutBatch(index, keys, entries); err != nil {
		t.Fatal(err)
	}
}

// TestExtractWholeRing: ExtractUpTo over the whole ring — what a node
// leaving under load balancing hands its successor — returns every entry
// of the index in storage order, keys 0 and ^0 included, and leaves it
// empty; a durable store's journal replays to the index being gone.
func TestExtractWholeRing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		var st Store = NewMemStore()
		if durable {
			st = openTestWALStore(t, dir, -1)
		}
		rng := rand.New(rand.NewSource(12))
		hashedRegion(t, st, "ix", 300, 3, rng)
		hashedRegion(t, st, "kept", 10, 2, rng)
		for i, key := range []lph.Key{0, ^lph.Key(0)} {
			if err := st.Put("ix", key, Entry{Obj: ObjectID(1000 + i), Point: []float64{0.5, 0.5, 0.5}}); err != nil {
				t.Fatal(err)
			}
		}
		whole := query.Region{Cube: []lph.Bounds{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}}
		st.ScanIDs("ix", whole, nil) // build the scan index
		keys, entries := viewCopy(st, "ix")
		if ok, err := st.Delete("ix", keys[7], entries[7].Obj); err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
		wantK, wantE := viewCopy(st, "ix")
		gotK, gotE, err := st.ExtractUpTo("ix", 0, ^lph.Key(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != 301 || !slices.Equal(gotK, wantK) || !entriesEqual(gotE, wantE) {
			t.Fatalf("durable=%v: the whole-ring extraction handed out %d entries, not the %d the index held in storage order", durable, len(gotK), len(wantK))
		}
		if n, ids := st.Size("ix"), st.ScanIDs("ix", whole, nil); n != 0 || len(ids) != 0 {
			t.Fatalf("durable=%v: after the extraction the index holds %d entries and a scan finds %v", durable, n, ids)
		}
		if st.Size("kept") != 10 {
			t.Fatalf("durable=%v: the extraction took entries of another index", durable)
		}
		if durable {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openTestWALStore(t, dir, -1)
			if names := st.Indexes(); !slices.Equal(names, []string{"kept"}) || st.Size("kept") != 10 {
				t.Fatalf("the journal replays to indexes %v, want only the 10 entries of kept", names)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanAcrossTailThreshold grows a region one Put at a time through
// every size at which the tail is merged into the body, then shrinks it
// one Delete at a time — each drops the index, and the next scan rebuilds
// it — and checks Scan at every size on the way, and that after a scan
// every entry has a row. What a merge keeps (order, boxes, the bound on
// the tail) is FuzzRows' in internal/query.
func TestScanAcrossTailThreshold(t *testing.T) {
	const k, n = 3, 400
	rng := rand.New(rand.NewSource(5))
	part, err := lph.New(k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	cube := func() []lph.Bounds {
		c := make([]lph.Bounds, k)
		for j := range c {
			x := rng.Float64()
			c[j] = lph.Bounds{Lo: x - 0.3, Hi: x + 0.3}
		}
		return c
	}
	check := func(after string) {
		t.Helper()
		reg := st.regions["ix"]
		checkScan(t, st, "ix", cube(), after)
		if reg.rows.Len() != len(reg.entries) {
			t.Fatalf("after %s: %d entries, %d rows", after, len(reg.entries), reg.rows.Len())
		}
	}
	var keys []lph.Key
	for i := 0; i < n; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		keys = append(keys, part.Hash(p))
		if err := st.Put("ix", keys[i], Entry{Obj: ObjectID(i), Point: p}); err != nil {
			t.Fatal(err)
		}
		check("Put")
	}
	for _, i := range rng.Perm(n) {
		if ok, err := st.Delete("ix", keys[i], ObjectID(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
		if st.Size("ix") > 0 {
			check("Delete")
		}
	}
}

// TestScanLargeRegion: a 10⁴-row region under its own LPH keys — boxes
// tight enough that most rows are passed over — against the reference,
// before and after appends.
func TestScanLargeRegion(t *testing.T) {
	const k, n = 6, 10000
	rng := rand.New(rand.NewSource(6))
	st := NewMemStore()
	hashedRegion(t, st, "ix", n, k, rng)
	cubes := func(after string) {
		t.Helper()
		for _, w := range []float64{0, 0.05, 0.2, 0.4, 2} {
			c := make([]lph.Bounds, k)
			for j := range c {
				x := rng.Float64()
				c[j] = lph.Bounds{Lo: x - w, Hi: x + w}
			}
			checkScan(t, st, "ix", c, after)
		}
	}
	cubes("PutBatch")
	reg := st.regions["ix"]
	reg.rowTests = 0
	const scans = 20
	for i := 0; i < scans; i++ {
		c := make([]lph.Bounds, k)
		for j := range c {
			x := rng.Float64()
			c[j] = lph.Bounds{Lo: x - 0.2, Hi: x + 0.2}
		}
		checkScan(t, st, "ix", c, "PutBatch")
	}
	if reg.rowTests*4 > scans*n {
		t.Fatalf("%d scans of %d rows tested %d rows", scans, n, reg.rowTests)
	}
	hashedRegion(t, st, "ix", n/4, k, rng)
	cubes("appends")
}

// TestScanSteadyStateAllocs: the scan that finds new entries builds
// their rows; the scans after it allocate nothing.
func TestScanSteadyStateAllocs(t *testing.T) {
	const k, n = 6, 2000
	for _, durable := range []bool{false, true} {
		var st Store = NewMemStore()
		if durable {
			st = openTestWALStore(t, t.TempDir(), -1)
		}
		rng := rand.New(rand.NewSource(7))
		hashedRegion(t, st, "ix", n, k, rng)
		hashedRegion(t, st, "ix", n/8, k, rng) // some of it in the tail
		r := query.Region{Cube: make([]lph.Bounds, k)}
		for j := range r.Cube {
			r.Cube[j] = lph.Bounds{Lo: 0.1, Hi: 0.9}
		}
		buf := imageOf(st).Scan("ix", r, make([]Entry, 0, n+n/8))
		if len(buf) == 0 {
			t.Fatal("the warm-up scan matched nothing")
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = imageOf(st).Scan("ix", r, buf[:0]) }); allocs != 0 {
			t.Fatalf("durable=%v: %.0f allocations per scan into a buffer with room", durable, allocs)
		}
		ids := make([]int32, 0, len(buf))
		if allocs := testing.AllocsPerRun(100, func() { ids = st.ScanIDs("ix", r, ids[:0]) }); allocs != 0 {
			t.Fatalf("durable=%v: %.0f allocations per ScanIDs into a buffer with room", durable, allocs)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreRefusesPointOfAnotherLength: an index has one point length.
// An entry of another is an error that stores and journals nothing — it
// used to be accepted and kept where no query could return it. The same
// goes for a batch that does not carry one key per entry, which used to
// be stored with every later key beside another entry.
func TestStoreRefusesPointOfAnotherLength(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		var st Store = NewMemStore()
		if durable {
			st = openTestWALStore(t, dir, -1)
		}
		pt := func(obj ObjectID, coords ...float64) Entry { return Entry{Obj: obj, Point: coords} }
		if err := st.Put("ix", 1, pt(1, 0.1, 0.2)); err != nil {
			t.Fatal(err)
		}
		if err := st.PutBatch("ix", []lph.Key{2, 3}, []Entry{pt(2, 0.3, 0.4), pt(3, 0.5, 0.6)}); err != nil {
			t.Fatal(err)
		}
		wantK, wantE := viewCopy(st, "ix")
		same := func(after string) {
			t.Helper()
			k, e := viewCopy(st, "ix")
			if !reflect.DeepEqual(k, wantK) || !reflect.DeepEqual(e, wantE) {
				t.Fatalf("after %s the index holds %v %v, want %v %v", after, k, e, wantK, wantE)
			}
			if names := st.Indexes(); !reflect.DeepEqual(names, []string{"ix"}) {
				t.Fatalf("after %s the store holds indexes %v", after, names)
			}
		}
		if err := st.Put("ix", 4, pt(4, 0.1, 0.2, 0.3)); err == nil {
			t.Fatal("Put accepted a 3-coordinate point into a 2-coordinate index")
		}
		same("a refused Put")
		if err := st.PutBatch("ix", []lph.Key{5, 6}, []Entry{pt(5, 0.7, 0.8), pt(6, 0.9)}); err == nil {
			t.Fatal("PutBatch accepted a 1-coordinate point into a 2-coordinate index")
		}
		same("a refused PutBatch")
		if err := st.ApplyRegion("ix", []lph.Key{7, 8}, []Entry{pt(7, 0.1), pt(8, 0.1, 0.2)}); err == nil {
			t.Fatal("ApplyRegion accepted points of two lengths")
		}
		same("a refused ApplyRegion")
		for _, c := range []struct {
			keys    []lph.Key
			entries []Entry
		}{
			{[]lph.Key{5, 6}, []Entry{pt(5, 0.7, 0.8)}},
			{[]lph.Key{5}, []Entry{pt(5, 0.7, 0.8), pt(6, 0.9, 1)}},
			{nil, []Entry{pt(5, 0.7, 0.8)}},
			{[]lph.Key{5}, nil},
		} {
			for _, index := range []string{"ix", "other"} {
				if err := st.PutBatch(index, c.keys, c.entries); err == nil {
					t.Fatalf("PutBatch(%q) accepted %d keys for %d entries", index, len(c.keys), len(c.entries))
				}
				same("a refused PutBatch")
				if err := st.ApplyRegion(index, c.keys, c.entries); err == nil {
					t.Fatalf("ApplyRegion(%q) accepted %d keys for %d entries", index, len(c.keys), len(c.entries))
				}
				same("a refused ApplyRegion")
			}
		}
		if got := st.ScanIDs("ix", query.Region{Cube: make([]lph.Bounds, 3)}, nil); len(got) != 0 {
			t.Fatalf("a 3-coordinate cube matched %d 2-coordinate points", len(got))
		}
		if got := st.ScanIDs("ix", query.Region{Cube: []lph.Bounds{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}}, nil); len(got) != 3 {
			t.Fatalf("a scan of the whole space returned %v", got)
		}
		if durable {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re := openTestWALStore(t, dir, -1)
			if n := re.Recovery().RecordsReplayed; n != 2 {
				t.Fatalf("%d records replayed, want the 2 accepted mutations", n)
			}
			st = re
			same("reopening")
		}
		// A wholesale replacement, or the first entry of an emptied index,
		// sets the length anew.
		if err := st.ApplyRegion("ix", []lph.Key{9}, []Entry{pt(9, 0.5)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.ExtractUpTo("ix", 0, ^lph.Key(0)); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("ix", 10, pt(10, 0.1, 0.2, 0.3)); err != nil {
			t.Fatal(err)
		}
		if got := st.ScanIDs("ix", query.Region{Cube: []lph.Bounds{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}}, nil); len(got) != 1 || got[0] != 10 {
			t.Fatalf("scan of the refilled index returned %v", got)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
