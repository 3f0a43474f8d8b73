package netrt

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wire"
)

// frameCodec is one frame kind behind an untyped face, so the
// round-trip, truncation, allocation and fuzz tests run over all of them
// alike. Messages are handled as pointers to their struct.
type frameCodec struct {
	name   string
	kind   byte
	sample any // one valid message
	fresh  func() any
	append func(dst []byte, m any) []byte
	decode func(body []byte) (any, error)
}

func newFrameCodec[M any](name string, kind byte, sample M, app func([]byte, *M) []byte, dec func([]byte) (M, error)) frameCodec {
	return frameCodec{
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

// sampleMembers is a four-member view, as the ring-* workloads gossip.
func sampleMembers() []Member {
	return []Member{memberAt("127.0.0.1:41267"), memberAt("127.0.0.1:52268"), memberAt("127.0.0.1:26840"), memberAt("127.0.0.1:48942")}
}

// as binds an appender that serves several kinds to one of them.
func as[M any](kind byte, app func([]byte, byte, *M) []byte) func([]byte, *M) []byte {
	return func(dst []byte, m *M) []byte { return app(dst, kind, m) }
}

// frameCodecs lists every frame kind proto.go encodes: every kind with a
// body (TestEveryKindHasACodec holds the list to the kind constants).
func frameCodecs() []frameCodec {
	ping := func(kind byte) func([]byte, *pingMsg) []byte {
		return func(dst []byte, m *pingMsg) []byte { return appendPing(dst, kind, *m) }
	}
	hello := helloMsg{Version: protoVersion, Sig: 0xa33e2c25e2f97fbb, Self: memberAt("127.0.0.1:41267"), Members: sampleMembers()}
	welcome := clientWelcomeMsg{Version: protoVersion, Addr: "127.0.0.1:41267"}
	return []frameCodec{
		newFrameCodec("hello", kindHello, hello, as(kindHello, appendHello), decodeHello),
		newFrameCodec("welcome", kindWelcome, hello, as(kindWelcome, appendHello), decodeHello),
		newFrameCodec("peerReject", kindReject, helloMsg{Version: protoVersion, Sig: 0xa33e2c25e2f97fbb, Self: hello.Self}, as(kindReject, appendHello), decodeHello),
		newFrameCodec("announce", kindAnnounce, announceMsg{Members: sampleMembers()}, appendAnnounce, decodeAnnounce),
		newFrameCodec("query", kindQuery, sampleQuery(), appendQuery, decodeQuery),
		newFrameCodec("result", kindResult, sampleResult(), appendResult, decodeResult),
		newFrameCodec("drop", kindDrop, dropMsg{Epoch: 5, QID: 6, Credit: 7, From: 8, Reason: "ttl exhausted"}, appendDrop, decodeDrop),
		newFrameCodec("ping", kindPing, pingMsg{From: 9, Seq: 10}, ping(kindPing), decodePing),
		newFrameCodec("pong", kindPong, pingMsg{From: 11, Seq: 10}, ping(kindPong), decodePing),
		newFrameCodec("repChunk", kindRepChunk, repChunkMsg{Transfer: 13, Seq: 2, Chunks: 3, Items: 15, Digest: 16,
			Data: []byte("delta bytes")}, appendRepChunk, decodeRepChunk),
		newFrameCodec("repAck", kindRepAck, repAckMsg{Transfer: 13, Seq: 2}, appendRepAck, decodeRepAck),
		newFrameCodec("repDigest", kindRepDigest, repDigestMsg{Owner: 12, Items: 15, Digest: 16}, appendRepDigest, decodeRepDigest),
		newFrameCodec("publish", kindPublish, pubMsg{Origin: 1, OriginAddr: "127.0.0.1:52268", Epoch: 2, RID: 3, ID: 1 << 24,
			Obj: []byte("object"), Key: 4, Replica: true, Owner: 5, TTL: 48}, appendPub, decodePub),
		newFrameCodec("pubAck", kindPubAck, pubAckMsg{Epoch: 2, RID: 3, Err: "owner down"}, appendPubAck, decodePubAck),
		newFrameCodec("clientHello", kindClientHello, clientWelcomeMsg{Version: protoVersion}, as(kindClientHello, appendClientWelcome), decodeClientWelcome),
		newFrameCodec("clientWelcome", kindClientWelcome, welcome, as(kindClientWelcome, appendClientWelcome), decodeClientWelcome),
		newFrameCodec("clientReject", kindReject, welcome, as(kindReject, appendClientWelcome), decodeClientWelcome),
		newFrameCodec("clientQuery", kindClientQuery, clientQueryMsg{QObj: []byte("object"), R: 0.3}, appendClientQuery, decodeClientQuery),
		newFrameCodec("clientResult", kindClientResult, clientResultMsg{Complete: true, Dropped: 2, Err: "late",
			Entries: sampleResult().Entries}, appendClientResult, decodeClientResult),
		newFrameCodec("info", kindClientInfoR, Info{ID: NodeID("127.0.0.1:41267"), Addr: "127.0.0.1:41267", Members: sampleMembers(),
			Store: 2979, Recovered: true, Replayed: 27, Replicas: 1, Down: []uint64{NodeID("127.0.0.1:48942")}, SyncedOwners: 1,
			Extras: 24, Repairs: 2, RepairChunks: 9, Tested: 3271638, Refined: 977533}, appendInfo, decodeInfo),
		newFrameCodec("clientPublish", kindClientPublish, clientMutMsg{ID: 1 << 24, Obj: []byte("object")}, as(kindClientPublish, appendClientMut), decodeClientMut),
		newFrameCodec("clientDelete", kindClientDelete, clientMutMsg{ID: 7}, as(kindClientDelete, appendClientMut), decodeClientMut),
		newFrameCodec("clientMutR", kindClientMutR, clientMutRMsg{Err: "collides with the boot corpus"}, appendClientMutR, decodeClientMutR),
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
	case reflect.Int, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
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
	case reflect.Uint32:
		if edge {
			v.SetUint([]uint64{0, 1, protoVersion, math.MaxUint32}[rng.Intn(4)])
		} else {
			v.SetUint(uint64(rng.Uint32()))
		}
	case reflect.Int, reflect.Int64:
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
	check := func(c frameCodec, m any) {
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
	byName := map[string]frameCodec{}
	for _, c := range frameCodecs() {
		byName[c.name] = c
		check(c, c.sample)
		// A frame carries a member's address and nothing else, so the only
		// members a round trip can be asked to preserve are those whose ID
		// is their address's.
		deriveIDs := func(m any) any {
			eachMember(reflect.ValueOf(m).Elem(), func(mem *Member) { *mem = memberAt(mem.Addr) })
			return m
		}
		check(c, deriveIDs(c.fresh())) // the zero message: nothing but zero counts and empty strings
		for i := 0; i < 500; i++ {
			m := c.fresh()
			fillRandom(rng, reflect.ValueOf(m).Elem())
			check(c, deriveIDs(m))
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

// eachMember calls fn for every Member an addressable message holds, at
// any depth.
func eachMember(v reflect.Value, fn func(*Member)) {
	if m, ok := v.Addr().Interface().(*Member); ok {
		fn(m)
		return
	}
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachMember(v.Index(i), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachMember(v.Field(i), fn)
		}
	}
}

// checkDecode is what every decoder owes any body at all: no panic;
// a refusal is a *wire.FrameError with the zero message; an accepted
// body is exactly what the decoded message encodes to, and every member
// it names sits at the ring position of its own address; and either way
// the decoder allocated no more than the body's length accounts for —
// a count field is checked against the bytes left before it sizes a
// make. (A decoded Member is 24 bytes for at least 2 on the wire, a
// Region 40 for at least 20, an entry 16 for 12; the slack covers the
// message struct and allocations of the test binary's own.)
func checkDecode(t *testing.T, c frameCodec, body []byte) {
	t.Helper()
	var m any
	var err error
	if used, limit := allocatedBy(func() { m, err = c.decode(body) }), uint64(12*len(body)+64<<10); used > limit {
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
	eachMember(reflect.ValueOf(m).Elem(), func(mem *Member) {
		if mem.ID != NodeID(mem.Addr) {
			t.Fatalf("%s: decoded member %016x @ %q, whose address hashes to %016x", c.name, mem.ID, mem.Addr, NodeID(mem.Addr))
		}
	})
}

// TestDecodedMemberIdentityIsDerived: a sender that pairs another
// member's ring position with an address of its own choosing cannot say
// so. Whatever ID a hello, an announce or an Info is built with, only
// addresses reach the wire, and every member the receiver decodes —
// hello's sender included — sits at NodeID of its address.
func TestDecodedMemberIdentityIsDerived(t *testing.T) {
	victim := memberAt("127.0.0.1:41267")
	lie := []Member{{ID: victim.ID, Addr: "10.6.6.6:1"}, {ID: 0, Addr: "10.6.6.6:2"}, victim}
	byName := map[string]frameCodec{}
	for _, c := range frameCodecs() {
		byName[c.name] = c
	}
	for name, msg := range map[string]any{
		"hello":    &helloMsg{Version: protoVersion, Self: lie[0], Members: lie},
		"announce": &announceMsg{Members: lie},
		"info":     &Info{Members: lie},
	} {
		c := byName[name]
		m, err := c.decode(c.append(nil, msg)[1:])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := 0
		eachMember(reflect.ValueOf(m).Elem(), func(mem *Member) {
			seen++
			if mem.ID != NodeID(mem.Addr) || (mem.ID == victim.ID && mem.Addr != victim.Addr) {
				t.Errorf("%s: decoded member %016x @ %q", name, mem.ID, mem.Addr)
			}
		})
		if seen < len(lie) {
			t.Errorf("%s: decoded %d members of the %d sent", name, seen, len(lie))
		}
	}
}

// TestEveryKindHasACodec reads the kind constants out of proto.go and
// holds the codec table to them: a kind with a body and no row is a
// decoder of socket bytes that the round-trip, truncation and fuzz tests
// above never see.
func TestEveryKindHasACodec(t *testing.T) {
	elsewhere := map[string]string{
		"kindClientInfo": "no body",
	}
	file, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || !strings.HasPrefix(spec.Names[0].Name, "kind") || len(spec.Values) != 1 {
			return true
		}
		lit, ok := spec.Values[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s is not a literal: this test cannot read it", spec.Names[0].Name)
		}
		v, err := strconv.ParseUint(lit.Value, 0, 8)
		if err != nil {
			t.Fatalf("%s = %s: %v", spec.Names[0].Name, lit.Value, err)
		}
		if other, dup := kinds[byte(v)]; dup {
			t.Fatalf("%s and %s are both %d", other, spec.Names[0].Name, v)
		}
		kinds[byte(v)] = spec.Names[0].Name
		return true
	})
	if len(kinds) < 23 {
		t.Fatalf("read %d kind constants out of proto.go, there were 23 when this was written", len(kinds))
	}
	rows := map[byte]bool{}
	for _, c := range frameCodecs() {
		if _, known := kinds[c.kind]; !known {
			t.Errorf("codec row %s is of kind %d, which proto.go does not declare", c.name, c.kind)
		}
		rows[c.kind] = true
	}
	for v, name := range kinds {
		if _, exempt := elsewhere[name]; exempt == rows[v] {
			t.Errorf("%s (%d): in the codec table %v, listed as covered elsewhere %v — want exactly one", name, v, rows[v], exempt)
		}
	}
}

// TestHostileHotFrameSweep is TestHostileTransferFrameSweep for the
// frames a query and a mutation cross: every valid encoding cut at every
// offset, or followed by anything, is refused; and with each of its
// 4-byte windows overwritten by 2³²−1 — wherever a count or a length
// sits — it is refused or read as what it then says, never sized from.
func TestHostileHotFrameSweep(t *testing.T) {
	for _, c := range frameCodecs() {
		enc := c.append(nil, c.sample)[1:]
		if _, err := c.decode(enc); err != nil {
			t.Fatalf("%s: intact encoding refused: %v", c.name, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := c.decode(enc[:cut]); err == nil {
				t.Fatalf("%s: accepted its encoding cut at %d of %d", c.name, cut, len(enc))
			}
			checkDecode(t, c, enc[:cut])
		}
		for _, extra := range []int{1, 7, 1024} {
			junk := append(bytes.Clone(enc), bytes.Repeat([]byte{0xFF}, extra)...)
			if _, err := c.decode(junk); err == nil {
				t.Fatalf("%s: accepted %d trailing bytes", c.name, extra)
			}
			checkDecode(t, c, junk)
		}
		for off := 0; off+4 <= len(enc); off++ {
			mut := bytes.Clone(enc)
			copy(mut[off:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			checkDecode(t, c, mut)
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
	for _, c := range frameCodecs() {
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
