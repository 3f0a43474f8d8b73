package netrt

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wire"
)

// hotCodec is one binary frame kind behind an untyped face, so the
// round-trip, truncation, allocation and fuzz tests run over all of them
// alike. Messages are handled as pointers to their struct.
type hotCodec struct {
	name   string
	kind   byte
	sample any // one valid message
	fresh  func() any
	append func(dst []byte, m any) []byte
	decode func(body []byte) (any, error)
}

func newHotCodec[M any](name string, kind byte, sample M, app func([]byte, *M) []byte, dec func([]byte) (M, error)) hotCodec {
	return hotCodec{
		name: name, kind: kind, sample: &sample,
		fresh:  func() any { return new(M) },
		append: func(dst []byte, m any) []byte { return app(dst, m.(*M)) },
		decode: func(body []byte) (any, error) { m, err := dec(body); return &m, err },
	}
}

// sampleQuery is a query message shaped like ring-selective's (three
// regions over six landmarks, a 72-byte object: eight float64s behind
// EncodeVectorQuery's header), sampleResult an eight-entry answer. They
// seed the fuzzer and are what BenchmarkHotFrameCodec times.
func sampleQuery() queryMsg {
	rng := rand.New(rand.NewSource(19))
	q := queryMsg{Origin: 0x0123456789abcdef, OriginAddr: "127.0.0.1:52268", Epoch: 1 << 60, QID: 77,
		Credit: creditTotal / 3, QObj: make([]byte, 72), R: 0.12, TTL: 47}
	rng.Read(q.QObj)
	for i := 0; i < 3; i++ {
		reg := query.Region{PreKey: lph.Key(i) << 62, PreLen: 2, Cube: make([]lph.Bounds, 6)}
		for j := range reg.Cube {
			lo := rng.Float64()
			reg.Cube[j] = lph.Bounds{Lo: lo, Hi: lo + 0.24}
		}
		q.Regions = append(q.Regions, reg)
	}
	return q
}

func sampleResult() resultMsg {
	m := resultMsg{Epoch: 1 << 60, QID: 77, Credit: creditTotal / 9, From: 0xfedcba9876543210}
	for i := 0; i < 8; i++ {
		m.Entries = append(m.Entries, ResultEntry{Obj: int32(1000 * i), Dist: 0.01 * float64(i)})
	}
	return m
}

// hotCodecs lists every frame kind proto.go encodes in binary.
func hotCodecs() []hotCodec {
	ping := func(kind byte) func([]byte, *pingMsg) []byte {
		return func(dst []byte, m *pingMsg) []byte { return appendPing(dst, kind, *m) }
	}
	mut := func(kind byte) func([]byte, *clientMutMsg) []byte {
		return func(dst []byte, m *clientMutMsg) []byte { return appendClientMut(dst, kind, m) }
	}
	return []hotCodec{
		newHotCodec("query", kindQuery, sampleQuery(), appendQuery, decodeQuery),
		newHotCodec("result", kindResult, sampleResult(), appendResult, decodeResult),
		newHotCodec("drop", kindDrop, dropMsg{Epoch: 5, QID: 6, Credit: 7, From: 8, Reason: "ttl exhausted"}, appendDrop, decodeDrop),
		newHotCodec("ping", kindPing, pingMsg{From: 9, Seq: 10}, ping(kindPing), decodePing),
		newHotCodec("pong", kindPong, pingMsg{From: 11, Seq: 10}, ping(kindPong), decodePing),
		newHotCodec("publish", kindPublish, pubMsg{Origin: 1, OriginAddr: "127.0.0.1:52268", Epoch: 2, RID: 3, ID: 1 << 24,
			Obj: []byte("object"), Key: 4, Replica: true, Owner: 5, TTL: 48}, appendPub, decodePub),
		newHotCodec("pubAck", kindPubAck, pubAckMsg{Epoch: 2, RID: 3, Err: "owner down"}, appendPubAck, decodePubAck),
		newHotCodec("clientQuery", kindClientQuery, clientQueryMsg{QObj: []byte("object"), R: 0.3}, appendClientQuery, decodeClientQuery),
		newHotCodec("clientResult", kindClientResult, clientResultMsg{Complete: true, Dropped: 2, Err: "late",
			Entries: sampleResult().Entries}, appendClientResult, decodeClientResult),
		newHotCodec("clientPublish", kindClientPublish, clientMutMsg{ID: 1 << 24, Obj: []byte("object")}, mut(kindClientPublish), decodeClientMut),
		newHotCodec("clientDelete", kindClientDelete, clientMutMsg{ID: 7}, mut(kindClientDelete), decodeClientMut),
		newHotCodec("clientMutR", kindClientMutR, clientMutRMsg{Err: "collides with the boot corpus"}, appendClientMutR, decodeClientMutR),
	}
}

// sameBits compares two messages field for field: floats by their 64
// bits (a NaN must come back as the NaN it was, −0 as −0), slices by
// length and element, nil and empty alike.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int32:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: a message grew a field of kind " + a.Kind().String())
}

// edgeFloats are the values a lossy codec loses first.
var edgeFloats = []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 0}

// fillRandom sets every field of a message to a seeded random value,
// every fourth one to an edge of its type: credit 1 and 2⁶², TTL 0 and
// negative, the floats above, empty and 255-byte strings, empty byte
// slices, no regions at all, cubes of every length including none.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	edge := rng.Intn(4) == 0
	switch v.Kind() {
	case reflect.Uint64:
		if edge {
			v.SetUint([]uint64{0, 1, 1 << 62, math.MaxUint64}[rng.Intn(4)])
		} else {
			v.SetUint(rng.Uint64())
		}
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Int:
		if edge {
			v.SetInt([]int64{0, -1, math.MaxInt64, math.MinInt64}[rng.Intn(4)])
		} else {
			v.SetInt(int64(rng.Uint64()))
		}
	case reflect.Int32:
		if edge {
			v.SetInt([]int64{0, -1, math.MaxInt32, math.MinInt32}[rng.Intn(4)])
		} else {
			v.SetInt(int64(int32(rng.Uint32())))
		}
	case reflect.Float64:
		if edge {
			v.SetFloat(edgeFloats[rng.Intn(len(edgeFloats))])
		} else {
			v.SetFloat(rng.NormFloat64())
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.String:
		n := rng.Intn(40)
		if edge {
			n = []int{0, 255}[rng.Intn(2)]
		}
		p := make([]byte, n)
		rng.Read(p)
		v.SetString(string(p))
	case reflect.Slice:
		n := rng.Intn(8)
		if v.Type().Elem().Kind() == reflect.Uint8 {
			n = rng.Intn(200)
		}
		if edge {
			n = 0
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillRandom(rng, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i))
		}
	default:
		panic("fillRandom: a message grew a field of kind " + v.Kind().String())
	}
}

// TestHotFrameRoundTrip is the property the Complete ⇒ brute-force exact
// contract rests on now that a cube crosses every hop as bytes: for
// every binary frame kind, decode(append(m)) is m, field for field and
// bit for bit, and what was decoded encodes to the same bytes again.
func TestHotFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	check := func(c hotCodec, m any) {
		t.Helper()
		enc := c.append(nil, m)
		if enc[0] != c.kind {
			t.Fatalf("%s: payload starts with kind %d, want %d", c.name, enc[0], c.kind)
		}
		got, err := c.decode(enc[1:])
		if err != nil {
			t.Fatalf("%s: own encoding of %+v refused: %v", c.name, m, err)
		}
		if !sameBits(reflect.ValueOf(m).Elem(), reflect.ValueOf(got).Elem()) {
			t.Fatalf("%s: sent %+v, arrived as %+v", c.name, m, got)
		}
		if again := c.append(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding gave %x, first encoding %x", c.name, again, enc)
		}
	}
	byName := map[string]hotCodec{}
	for _, c := range hotCodecs() {
		byName[c.name] = c
		check(c, c.sample)
		check(c, c.fresh()) // the zero message: nothing but zero counts and empty strings
		for i := 0; i < 500; i++ {
			m := c.fresh()
			fillRandom(rng, reflect.ValueOf(m).Elem())
			check(c, m)
		}
	}

	// The cases named one by one, whatever the seed above happened to
	// draw. Regions whose cubes differ in length are what process reports
	// as "malformed region": they must arrive as they were sent, not
	// normalised by the codec.
	for _, q := range []queryMsg{
		{Credit: 1, TTL: 0, OriginAddr: strings.Repeat("a", 255)},
		{Credit: creditTotal, TTL: -3, R: math.Inf(1), QObj: []byte{}},
		{Credit: 2, R: math.Copysign(0, -1), Regions: []query.Region{
			{PreLen: 64, PreKey: math.MaxUint64},
			{PreLen: -1, Cube: []lph.Bounds{{Lo: math.NaN(), Hi: math.SmallestNonzeroFloat64}}},
			{PreLen: 300, Cube: make([]lph.Bounds, 7)},
		}},
	} {
		check(byName["query"], &q)
	}
	check(byName["publish"], &pubMsg{Delete: true, Replica: true, ID: -1, TTL: 0, OriginAddr: strings.Repeat("b", 255)})
	check(byName["clientResult"], &clientResultMsg{Dropped: -1, Entries: []ResultEntry{{Obj: -1, Dist: math.NaN()}, {Dist: math.Inf(-1)}}})
}

// allocatedBy reports the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkHotDecode is what every decoder owes any body at all: no panic;
// a refusal is a *wire.FrameError with the zero message; an accepted
// body is exactly what the decoded message encodes to; and either way
// the decoder allocated no more than the body's length accounts for —
// a count field is checked against the bytes left before it sizes a
// make. (A decoded Region is 40 bytes for at least 20 on the wire, an
// entry 16 for 12; the slack covers the message struct and allocations
// of the test binary's own.)
func checkHotDecode(t *testing.T, c hotCodec, body []byte) {
	t.Helper()
	var m any
	var err error
	if used, limit := allocatedBy(func() { m, err = c.decode(body) }), uint64(4*len(body)+64<<10); used > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d", c.name, len(body), used)
	}
	if err != nil {
		var fe *wire.FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: refused with %T (%v), want a *wire.FrameError", c.name, err, err)
		}
		if !reflect.ValueOf(m).Elem().IsZero() {
			t.Fatalf("%s: a refusal returned %+v", c.name, m)
		}
		return
	}
	if again := c.append(nil, m); again[0] != c.kind || !bytes.Equal(again[1:], body) {
		t.Fatalf("%s: accepted %x, which re-encodes to %x", c.name, body, again[1:])
	}
}

// TestHostileHotFrameSweep is TestHostileTransferFrameSweep for the
// frames a query and a mutation cross: every valid encoding cut at every
// offset, or followed by anything, is refused; and with each of its
// 4-byte windows overwritten by 2³²−1 — wherever a count or a length
// sits — it is refused or read as what it then says, never sized from.
func TestHostileHotFrameSweep(t *testing.T) {
	for _, c := range hotCodecs() {
		enc := c.append(nil, c.sample)[1:]
		if _, err := c.decode(enc); err != nil {
			t.Fatalf("%s: intact encoding refused: %v", c.name, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := c.decode(enc[:cut]); err == nil {
				t.Fatalf("%s: accepted its encoding cut at %d of %d", c.name, cut, len(enc))
			}
			checkHotDecode(t, c, enc[:cut])
		}
		for _, extra := range []int{1, 7, 1024} {
			junk := append(bytes.Clone(enc), bytes.Repeat([]byte{0xFF}, extra)...)
			if _, err := c.decode(junk); err == nil {
				t.Fatalf("%s: accepted %d trailing bytes", c.name, extra)
			}
			checkHotDecode(t, c, junk)
		}
		for off := 0; off+4 <= len(enc); off++ {
			mut := bytes.Clone(enc)
			copy(mut[off:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			checkHotDecode(t, c, mut)
		}
	}
}

// Allocation ceilings of the codecs, exact and the same on every run.
// Appending into a buffer with room allocates nothing. Decoding a query
// allocates its origin address, its object, its region slice and one
// cube per region; decoding a result allocates its entries.
const (
	queryDecodeAllocsFixed  = 3 // + one per region
	resultDecodeAllocsFixed = 1
)

var sinkQuery queryMsg
var sinkResult resultMsg

// TestHotFrameAllocsCeiling fails when a codec starts allocating per
// field, per entry or per call again (gob's did: 290 allocations for
// this query, 224 for this result).
func TestHotFrameAllocsCeiling(t *testing.T) {
	for _, c := range hotCodecs() {
		buf := c.append(nil, c.sample)
		if allocs := testing.AllocsPerRun(100, func() { buf = c.append(buf[:0], c.sample) }); allocs != 0 {
			t.Errorf("%s: appending into a buffer with room allocated %.0f times", c.name, allocs)
		}
	}
	q := sampleQuery()
	body := appendQuery(nil, &q)[1:]
	ceiling := float64(queryDecodeAllocsFixed + len(q.Regions))
	if allocs := testing.AllocsPerRun(100, func() { sinkQuery, _ = decodeQuery(body) }); allocs > ceiling {
		t.Errorf("decoding a %d-region query allocated %.0f times, ceiling %.0f", len(q.Regions), allocs, ceiling)
	}
	res := sampleResult()
	body = appendResult(nil, &res)[1:]
	if allocs := testing.AllocsPerRun(100, func() { sinkResult, _ = decodeResult(body) }); allocs > resultDecodeAllocsFixed {
		t.Errorf("decoding a result allocated %.0f times, ceiling %d", allocs, resultDecodeAllocsFixed)
	}
}

// BenchmarkHotFrameCodec times one encode and one decode of the two
// frames a query is made of, at ring-selective's shapes.
func BenchmarkHotFrameCodec(b *testing.B) {
	b.Run("query", func(b *testing.B) {
		q := sampleQuery()
		b.ReportMetric(float64(len(appendQuery(nil, &q))), "B/frame")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkQuery, _ = decodeQuery(appendQuery(nil, &q)[1:])
		}
	})
	b.Run("result", func(b *testing.B) {
		res := sampleResult()
		b.ReportMetric(float64(len(appendResult(nil, &res))), "B/frame")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkResult, _ = decodeResult(appendResult(nil, &res)[1:])
		}
	})
}
