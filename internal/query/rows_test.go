package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"landmarkdht/internal/lph"
)

// rowsModel is what a Rows holds, kept the plain way: its live rows, in
// no order.
type rowsModel []modelRow

type modelRow struct {
	key     lph.Key
	id, ref int32
	pt      []float64
}

// checkRowsShape holds x to what it promises between any two calls: its
// points have the rows' length, the body is in (key, id) order, its dead
// rows (a ref of −1) are counted, no
// tail row is dead, the leaf boxes bound the coordinates of their rows
// that are not NaN, and the live rows are the model's, each once; after
// a Settle, the tail and the dead rows are short of a merge, and the
// tail is no longer than the body.
func checkRowsShape(t *testing.T, x *Rows, m rowsModel, settled bool) {
	t.Helper()
	n, k := x.Len(), x.k
	if len(x.pts) != n*k || x.body > n {
		t.Fatalf("%d rows, %d coordinates (k %d), a body of %d", n, len(x.pts), k, x.body)
	}
	if settled && (n-x.body+x.dead >= rowsMerge || n-x.body > x.body) {
		t.Fatalf("after a settle: %d rows, a body of %d with %d dead", n, x.body, x.dead)
	}
	if x.body > 0 && (x.boxes.n != x.body || x.boxes.k != k || x.boxes.rows != rowsLeaf) {
		t.Fatalf("boxes shaped for %d rows of %d in leaves of %d, the body is %d rows of %d", x.boxes.n, x.boxes.k, x.boxes.rows, x.body, k)
	}
	live := map[int32]int{}
	dead := 0
	for r := range n {
		if r > 0 && r < x.body && x.rows[r].before(x.rows[r-1]) {
			t.Fatalf("body out of order at %d: %+v then %+v", r, x.rows[r-1], x.rows[r])
		}
		pt := x.pts[r*k : (r+1)*k]
		if r < x.body {
			l := r / rowsLeaf
			for j, v := range pt {
				if !math.IsNaN(v) && !(x.boxes.bmin[l*k+j] <= v && v <= x.boxes.bmax[l*k+j]) {
					t.Fatalf("body row %d at %v lies outside its leaf box %v–%v", r, pt, x.boxes.bmin[l*k:(l+1)*k], x.boxes.bmax[l*k:(l+1)*k])
				}
			}
		}
		if x.rows[r].ref < 0 {
			if r >= x.body {
				t.Fatalf("tail row %d (body %d) is dead", r, x.body)
			}
			dead++
			continue
		}
		if _, twice := live[x.rows[r].ref]; twice {
			t.Fatalf("ref %d on two rows", x.rows[r].ref)
		}
		live[x.rows[r].ref] = r
	}
	if dead != x.dead || len(live) != len(m) {
		t.Fatalf("%d rows, %d dead (counted %d), for a model of %d", n, dead, x.dead, len(m))
	}
	for _, want := range m {
		r, ok := live[want.ref]
		if !ok || x.rows[r] != (row{want.key, want.id, want.ref}) || !sameBits(x.pts[r*k:(r+1)*k], want.pt) {
			t.Fatalf("ref %d: row %d (%v), the model holds (%x, %d, %v)", want.ref, r, ok, want.key, want.id, want.pt)
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkRowsScan holds one Scan to the brute-force walk: every live row
// of the model whose key lies in [lo, hi] and whose point the cube
// contains (Region.Contains), each once, as rows in ascending order.
func checkRowsScan(t *testing.T, x *Rows, m rowsModel, cube []lph.Bounds, lo, hi lph.Key) {
	t.Helper()
	got, tested := x.Scan(cube, lo, hi, []int32{-1})
	if len(got) < 1 || got[0] != -1 {
		t.Fatal("Scan did not append to its buffer")
	}
	got = got[1:]
	if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) || tested < len(got) {
		t.Fatalf("Scan yielded rows %v after testing %d", got, tested)
	}
	var refs, want []int32
	for _, r := range got {
		refs = append(refs, x.Ref(int(r)))
	}
	reg := Region{Cube: cube}
	for _, row := range m {
		if row.key >= lo && row.key <= hi && reg.Contains(row.pt) {
			want = append(want, row.ref)
		}
	}
	slices.Sort(refs)
	slices.Sort(want)
	if !slices.Equal(refs, want) {
		t.Fatalf("cube %v, keys [%x, %x]: Scan finds refs %v, the walk %v", cube, lo, hi, refs, want)
	}
}

// runRows decodes one fuzz input — k in [0, 17], one past the mask
// kernel's limit; ops a sequence of adds, kills, settles and scans;
// every float drawn from raw (boxFloats) — and runs it on a Rows and a
// model, checking the shape after every op and each scan against the
// brute-force walk. An add is three bytes (op, key, id): keys take 32
// values spread over the key space and the top key, ids 16, so (key, id)
// pairs repeat; a kill two (op, which live row); a settle one; a scan
// three (op and the ends of its key range), its cube's sides put in
// order when the op byte is below 0x80, and a scan op of 7 mod 16 is
// one of the whole key space, after one with a cube of another length.
func runRows(t *testing.T, kb uint8, ops, raw []byte) {
	k := int(kb) % 18
	fl := &boxFloats{raw: raw}
	key := func(b byte) lph.Key {
		if b == 0xff {
			return ^lph.Key(0)
		}
		return lph.Key(b%32) << 59
	}
	var x Rows
	var m rowsModel
	next := int32(0)
	for len(ops) >= 3 {
		op := ops[0] % 8
		settled := false
		switch {
		case op < 4:
			pt := make([]float64, k)
			for j := range pt {
				pt[j] = fl.next()
			}
			row := modelRow{key(ops[1]), int32(ops[2] % 16), next, pt}
			next++
			x.Add(row.key, row.id, row.ref, row.pt)
			m = append(m, row)
			ops = ops[3:]
		case op == 4:
			if len(m) > 0 {
				i := int(ops[1]) % len(m)
				r := x.Find(m[i].key, m[i].id)
				if r < 0 || x.rows[r].key != m[i].key || x.rows[r].id != m[i].id {
					t.Fatalf("Find(%x, %d) = %d", m[i].key, m[i].id, r)
				}
				ref := x.Ref(r)
				m = slices.DeleteFunc(m, func(row modelRow) bool { return row.ref == ref })
				x.Kill(r)
			}
			ops = ops[2:]
		case op == 5:
			x.Settle()
			settled = true
			ops = ops[1:]
		default:
			cube := make([]lph.Bounds, k)
			for j := range cube {
				if cube[j] = (lph.Bounds{Lo: fl.next(), Hi: fl.next()}); ops[0] < 0x80 && cube[j].Hi < cube[j].Lo {
					cube[j].Lo, cube[j].Hi = cube[j].Hi, cube[j].Lo
				}
			}
			lo, hi := key(ops[1]), key(ops[2])
			if ops[0]%16 == 7 {
				lo, hi = 0, ^lph.Key(0)
				if got, _ := x.Scan(append(cube, lph.Bounds{Lo: math.Inf(-1), Hi: math.Inf(1)}), lo, hi, nil); len(got) != 0 {
					t.Fatalf("a cube of %d dimensions found rows %v of %d", k+1, got, k)
				}
			}
			checkRowsScan(t, &x, m, cube, lo, hi)
			ops = ops[3:]
		}
		checkRowsShape(t, &x, m, settled)
	}
}

// FuzzRows holds Rows to its model and each scan to the brute-force walk
// (runRows) on any floats and any sequence of adds, kills, settles and
// scans. The seeds run hundreds of rows through several merges — the
// first into an empty body, later ones past dead rows — over clustered
// unit-cube points with special values mixed in, for k 0 to 17.
func FuzzRows(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 18; i++ {
		var ops, raw []byte
		for j := 0; j < 40*(1+i%4); j++ {
			raw = append(raw, byte(9+rng.Intn(4))) // 0.25, 0.5, 0.75, 1
			if rng.Intn(20) == 0 {
				raw = append(raw, byte(rng.Intn(len(boxValues))))
			}
		}
		for n := 0; n < 60*(1+i%5); n++ {
			switch x := rng.Intn(20); {
			case x < 12:
				ops = append(ops, 0, byte(rng.Intn(256)), byte(rng.Intn(256)))
			case x < 15:
				ops = append(ops, 4, byte(rng.Intn(256)))
			case x < 17:
				ops = append(ops, 5)
			default:
				ops = append(ops, byte(6+rng.Intn(2)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
		}
		f.Add(uint8(i), ops, raw)
	}
	f.Fuzz(runRows)
}
