package wire

import (
	"math/rand"
	"testing"
	"testing/quick"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

func part(t *testing.T, k int) *lph.Partitioner {
	t.Helper()
	p, err := lph.New(k, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randRegion(rng *rand.Rand, p *lph.Partitioner) query.Region {
	cube := make([]lph.Bounds, p.K())
	for j := range cube {
		a, b := rng.Float64()*1000, rng.Float64()*1000
		if a > b {
			a, b = b, a
		}
		cube[j] = lph.Bounds{Lo: a, Hi: b}
	}
	r, err := query.New(p, cube)
	if err != nil {
		panic(err)
	}
	return r
}

// The sizes of the wire encodings must equal the paper's §4.1
// formulas, which core charges for every query and result message.
func TestSizesMatchPaperFormulas(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10, 20} {
		for _, n := range []int{0, 1, 3, 7} {
			want := 20 + 4 + n*(2*2*k+8+1)
			if QuerySize(n, k) != want {
				t.Fatalf("QuerySize(%d,%d) = %d, paper formula says %d", n, k, QuerySize(n, k), want)
			}
		}
	}
	for _, n := range []int{0, 1, 10, 100} {
		if ResultSize(n) != 20+6*n {
			t.Fatalf("ResultSize(%d) = %d, paper formula says %d", n, ResultSize(n), 20+6*n)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	p := part(t, 5)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		msg := QueryMessage{Source: rng.Uint32()}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			msg.Subqueries = append(msg.Subqueries, randRegion(rng, p))
		}
		data, err := EncodeQuery(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != QuerySize(n, 5) {
			t.Fatalf("encoded %d bytes, want %d", len(data), QuerySize(n, 5))
		}
		got, err := DecodeQuery(p, data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != msg.Source {
			t.Fatal("source corrupted")
		}
		if len(got.Subqueries) != n {
			t.Fatalf("got %d subqueries", len(got.Subqueries))
		}
		for i, sq := range got.Subqueries {
			orig := msg.Subqueries[i]
			if sq.PreKey != orig.PreKey || sq.PreLen != orig.PreLen {
				t.Fatal("prefix corrupted")
			}
			// Quantization must WIDEN, never narrow: no false negatives.
			for j := range sq.Cube {
				if sq.Cube[j].Lo > orig.Cube[j].Lo+1e-12 {
					t.Fatalf("dim %d lower bound narrowed: %v > %v", j, sq.Cube[j].Lo, orig.Cube[j].Lo)
				}
				if sq.Cube[j].Hi < orig.Cube[j].Hi-1e-12 {
					t.Fatalf("dim %d upper bound narrowed: %v < %v", j, sq.Cube[j].Hi, orig.Cube[j].Hi)
				}
				// And not by more than one quantum.
				quantum := 1000.0 / 65535 * 1.01
				if orig.Cube[j].Lo-sq.Cube[j].Lo > quantum || sq.Cube[j].Hi-orig.Cube[j].Hi > quantum {
					t.Fatalf("dim %d widened by more than a quantum", j)
				}
			}
		}
	}
}

func TestQueryDecodeErrors(t *testing.T) {
	p := part(t, 3)
	msg := QueryMessage{Subqueries: []query.Region{randRegion(rand.New(rand.NewSource(1)), p)}}
	data, err := EncodeQuery(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeQuery(p, data[:5]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte(nil), data...)
	bad[1] = 'X'
	if _, err := DecodeQuery(p, bad); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := DecodeQuery(p, append(data, 0)); err == nil {
		t.Fatal("expected length error")
	}
	// Wrong dimensionality partitioner.
	p2 := part(t, 4)
	if _, err := DecodeQuery(p2, data); err == nil {
		t.Fatal("expected dimensionality error")
	}
	// Corrupt prefix length.
	bad2 := append([]byte(nil), data...)
	bad2[len(bad2)-1] = 99
	if _, err := DecodeQuery(p, bad2); err == nil {
		t.Fatal("expected prefix-length error")
	}
}

func TestEncodeQueryValidation(t *testing.T) {
	p := part(t, 3)
	bad := QueryMessage{Subqueries: []query.Region{{Cube: make([]lph.Bounds, 2)}}}
	if _, err := EncodeQuery(p, bad); err == nil {
		t.Fatal("expected dims error")
	}
	bad2 := QueryMessage{Subqueries: []query.Region{{Cube: make([]lph.Bounds, 3), PreLen: 99}}}
	if _, err := EncodeQuery(p, bad2); err == nil {
		t.Fatal("expected prelen error")
	}
}

func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const maxDist = 1000.0
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20)
		entries := make([]ResultEntry, n)
		for i := range entries {
			entries[i] = ResultEntry{Obj: rng.Int31(), Dist: rng.Float64() * maxDist}
		}
		data, err := EncodeResult(entries, maxDist)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != ResultSize(n) {
			t.Fatalf("encoded %d bytes, want %d", len(data), ResultSize(n))
		}
		got, err := DecodeResult(data, maxDist)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("got %d entries", len(got))
		}
		for i := range got {
			if got[i].Obj != entries[i].Obj {
				t.Fatal("object id corrupted")
			}
			// Distance rounds UP by at most one quantum.
			if got[i].Dist < entries[i].Dist-1e-9 {
				t.Fatalf("distance understated: %v < %v", got[i].Dist, entries[i].Dist)
			}
			if got[i].Dist-entries[i].Dist > maxDist/65535*1.01 {
				t.Fatal("distance overstated by more than a quantum")
			}
		}
	}
}

func TestResultErrors(t *testing.T) {
	if _, err := EncodeResult(nil, 0); err == nil {
		t.Fatal("expected max-dist error")
	}
	data, _ := EncodeResult([]ResultEntry{{Obj: 1, Dist: 5}}, 10)
	if _, err := DecodeResult(data[:3], 10); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte(nil), data...)
	bad[1] = 'Q'
	if _, err := DecodeResult(bad, 10); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := DecodeResult(append(data, 0), 10); err == nil {
		t.Fatal("expected length error")
	}
}

// Property: decoding any encoded query yields cubes that contain the
// original cubes (the no-false-negative widening).
func TestQuickQuantizationWidens(t *testing.T) {
	p := part(t, 2)
	f := func(lo0, hi0, lo1, hi1 float64, key uint64, prelen uint8) bool {
		norm := func(x float64) float64 {
			if x != x || x < 0 {
				return 0
			}
			if x > 1000 {
				return 1000
			}
			return x
		}
		a0, b0 := norm(lo0), norm(hi0)
		if a0 > b0 {
			a0, b0 = b0, a0
		}
		a1, b1 := norm(lo1), norm(hi1)
		if a1 > b1 {
			a1, b1 = b1, a1
		}
		pl := int(prelen) % 65
		sq := query.Region{
			Cube:   []lph.Bounds{{Lo: a0, Hi: b0}, {Lo: a1, Hi: b1}},
			PreKey: lph.Prefix(key, pl),
			PreLen: pl,
		}
		data, err := EncodeQuery(p, QueryMessage{Subqueries: []query.Region{sq}})
		if err != nil {
			return false
		}
		got, err := DecodeQuery(p, data)
		if err != nil {
			return false
		}
		d := got.Subqueries[0]
		return d.Cube[0].Lo <= a0 && d.Cube[0].Hi >= b0 &&
			d.Cube[1].Lo <= a1 && d.Cube[1].Hi >= b1 &&
			d.PreKey == sq.PreKey && d.PreLen == pl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeQuery(b *testing.B) {
	p, _ := lph.New(10, 0, 1000)
	rng := rand.New(rand.NewSource(1))
	msg := QueryMessage{Source: 1}
	for i := 0; i < 4; i++ {
		msg.Subqueries = append(msg.Subqueries, randRegion(rng, p))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeQuery(p, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// The encoders must produce exactly the byte counts the size formulas
// promise — the traffic accounting charges QuerySize/ResultSize, and
// EncodeWire mode charges the encoder's actual output.
func TestEncodedLengthMatchesSizeFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 5, 10} {
		p := part(t, k)
		for _, n := range []int{0, 1, 2, 5, 9} {
			msg := QueryMessage{Source: rng.Uint32()}
			for i := 0; i < n; i++ {
				msg.Subqueries = append(msg.Subqueries, randRegion(rng, p))
			}
			data, err := EncodeQuery(p, msg)
			if err != nil {
				t.Fatalf("EncodeQuery(k=%d, n=%d): %v", k, n, err)
			}
			if len(data) != QuerySize(n, k) {
				t.Fatalf("len(EncodeQuery(k=%d, n=%d)) = %d, QuerySize says %d",
					k, n, len(data), QuerySize(n, k))
			}
		}
	}
	for _, n := range []int{0, 1, 10, 57} {
		entries := make([]ResultEntry, n)
		for i := range entries {
			entries[i] = ResultEntry{Obj: int32(i), Dist: rng.Float64() * 100}
		}
		data, err := EncodeResult(entries, 100)
		if err != nil {
			t.Fatalf("EncodeResult(%d entries): %v", n, err)
		}
		if len(data) != ResultSize(n) {
			t.Fatalf("len(EncodeResult(%d entries)) = %d, ResultSize says %d",
				n, len(data), ResultSize(n))
		}
	}
}
