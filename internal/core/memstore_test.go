package core

import (
	"math/rand"
	"reflect"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// scanReference is Scan's definition: Region.Contains over the stored
// entries, in storage order.
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

// checkScans compares Scan with the reference on every index of the
// store: random cubes, the whole space, a zero-width cube on a stored
// point, and a cube of another length than the index's points.
func checkScans(t *testing.T, st Store, names []string, dims map[string]int, rng *rand.Rand, after string) {
	t.Helper()
	for _, index := range names {
		k := dims[index]
		var cubes [][]lph.Bounds
		for i := 0; i < 4; i++ {
			c := make([]lph.Bounds, k)
			for j := range c {
				x, w := rng.Float64(), rng.Float64()*0.6
				c[j] = lph.Bounds{Lo: x - w, Hi: x + w}
			}
			cubes = append(cubes, c)
		}
		whole := make([]lph.Bounds, k)
		for j := range whole {
			whole[j] = lph.Bounds{Lo: -1, Hi: 2}
		}
		cubes = append(cubes, whole, make([]lph.Bounds, k+1))
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
			r := query.Region{Cube: c}
			want := scanReference(st, index, r)
			prefix := []Entry{{Obj: -1}}
			got := st.Scan(index, r, prefix)
			if len(got) < 1 || got[0].Obj != -1 {
				t.Fatalf("after %s: Scan(%q) did not append to its buffer", after, index)
			}
			if got = got[1:]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("after %s: Scan(%q, %v) = %v, Contains over View says %v", after, index, c, got, want)
			}
		}
	}
}

// TestScanMatchesContains drives every mutator of both stores in random
// interleavings — the WALStore through closes and reopens, with
// compactions in between — and holds Scan to Region.Contains over View
// after each step: the point column has to follow the entries through
// all of them.
func TestScanMatchesContains(t *testing.T) {
	dims := map[string]int{"one": 1, "three": 3, "six": 6, "none": 0}
	names := []string{"none", "one", "six", "three"}
	for _, durable := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		dir := t.TempDir()
		var st Store = NewMemStore()
		if durable {
			st = openTestWALStore(t, dir, 16)
		}
		nextObj := ObjectID(0)
		entry := func(k int) (lph.Key, Entry) {
			p := make([]float64, k)
			for j := range p {
				p[j] = rng.Float64()
			}
			nextObj++
			return lph.Key(rng.Intn(64)), Entry{Obj: nextObj, Point: p}
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
		for step := 0; step < 600; step++ {
			index := names[rng.Intn(len(names))]
			k := dims[index]
			var op string
			switch x := rng.Intn(20); {
			case x < 6:
				op = "Put"
				key, e := entry(k)
				must(op, st.Put(index, key, e))
			case x < 9:
				op = "PutBatch"
				keys, entries := batch(k, rng.Intn(12))
				must(op, st.PutBatch(index, keys, entries))
			case x < 14:
				op = "Delete"
				keys, entries := st.RegionSnapshot(index)
				if len(keys) > 0 {
					i := rng.Intn(len(keys))
					ok, err := st.Delete(index, keys[i], entries[i].Obj)
					must(op, err)
					if !ok {
						t.Fatalf("Delete(%q, %d, %d) found nothing", index, keys[i], entries[i].Obj)
					}
				}
			case x < 16:
				op = "ExtractUpTo"
				base := lph.Key(rng.Intn(64))
				_, _, err := st.ExtractUpTo(index, base, base+lph.Key(rng.Intn(24)))
				must(op, err)
			case x < 17:
				op = "ApplyRegion"
				keys, entries := batch(k, rng.Intn(30))
				must(op, st.ApplyRegion(index, keys, entries))
			case x < 18:
				op = "Drain"
				_, _, err := st.Drain(index)
				must(op, err)
			case x < 19:
				op = "DropIndex"
				must(op, st.DropIndex(index))
			default:
				op = "reopen"
				if durable {
					must("Close", st.Close())
					st = openTestWALStore(t, dir, 16)
				}
			}
			checkScans(t, st, names, dims, rng, op)
		}
		must("Close", st.Close())
	}
}

// TestStoreRefusesPointOfAnotherLength: an index has one point length.
// An entry of another is an error that stores and journals nothing — it
// used to be accepted and kept where no query could return it.
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
		wantK, wantE := st.RegionSnapshot("ix")
		same := func(after string) {
			t.Helper()
			k, e := st.RegionSnapshot("ix")
			if !reflect.DeepEqual(k, wantK) || !reflect.DeepEqual(e, wantE) {
				t.Fatalf("after %s the index holds %v %v, want %v %v", after, k, e, wantK, wantE)
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
		if got := st.Scan("ix", query.Region{Cube: make([]lph.Bounds, 3)}, nil); len(got) != 0 {
			t.Fatalf("a 3-coordinate cube matched %d 2-coordinate points", len(got))
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
		if _, _, err := st.Drain("ix"); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("ix", 10, pt(10, 0.1, 0.2, 0.3)); err != nil {
			t.Fatal(err)
		}
		if got := st.Scan("ix", query.Region{Cube: []lph.Bounds{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}}, nil); len(got) != 1 || got[0].Obj != 10 {
			t.Fatalf("scan of the refilled index returned %v", got)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
