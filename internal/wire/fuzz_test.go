package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// FuzzDecode feeds the same hostile bytes to every decoder a peer's
// stream reaches — the frame reader, the query and result codecs, and
// the region chunk codec — and requires of each:
//
//   - no panic, and an error of the documented type when it refuses;
//   - nothing allocated beyond what the input (or, for a frame whose
//     header over-declares, MaxFramePayload) justifies;
//   - decode∘encode identity on what it accepts: re-encoding the
//     decoded value and decoding again yields the same value (the same
//     bytes, for the codecs with no ignored header bytes).
//
// The query and result codecs are anchored to unit bounds, over which
// the 16-bit fixed point round-trips exactly. Over other bounds float
// rounding lets a re-encoded bound widen by one quantum (by design it
// never narrows), which would hide a layout bug behind expected noise.
func FuzzDecode(f *testing.F) {
	const k = 5
	p, err := lph.New(k, 0, 1)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: one valid encoding per codec (the round-trip tests'
	// shapes) and two more chunks — a stream's first, and an empty
	// region's — each also wrapped in a frame, plus the hostile headers.
	qmsg := QueryMessage{Source: 0xC0A80001}
	for i := 0; i < 3; i++ {
		cube := make([]lph.Bounds, k)
		for j := range cube {
			cube[j] = lph.Bounds{Lo: float64(i+j) / 16, Hi: float64(i+j+4) / 16}
		}
		qmsg.Subqueries = append(qmsg.Subqueries, query.Region{Cube: cube, PreKey: uint64(i) << 61, PreLen: 3})
	}
	qEnc, err := EncodeQuery(p, qmsg)
	if err != nil {
		f.Fatal(err)
	}
	rEnc, err := EncodeResult([]ResultEntry{{Obj: 7, Dist: 0.25}, {Obj: -1, Dist: 1}}, 1)
	if err != nil {
		f.Fatal(err)
	}
	cEnc, err := AppendChunk(nil, &RegionChunk{Transfer: 7, Index: "ix", Seq: 3, Last: true, Data: []byte("entries")})
	if err != nil {
		f.Fatal(err)
	}
	firstEnc, err := AppendChunk(nil, &RegionChunk{Transfer: 7, Index: "ix", Data: []byte("first")})
	if err != nil {
		f.Fatal(err)
	}
	emptyEnc, err := AppendChunk(nil, &RegionChunk{Transfer: 8, Index: "ix", Last: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, enc := range [][]byte{qEnc, rEnc, cEnc, firstEnc, emptyEnc} {
		f.Add(enc)
		framed, err := AppendFrame(nil, 42, enc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(framed)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})      // frame declaring 4 GiB
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0x00, 0x10, 0x00, 0x00, 'x'}) // frame declaring 1 MiB, carrying 1 byte

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, data)
		fuzzQuery(t, p, data)
		fuzzResult(t, data)
		fuzzChunk(t, data)
	})
}

func fuzzFrame(t *testing.T, data []byte) {
	id, payload, buf, err := ReadFrame(bytes.NewReader(data), nil)
	if cap(buf) > MaxFramePayload {
		t.Fatalf("ReadFrame grew its buffer to %d bytes", cap(buf))
	}
	if err != nil {
		var fe *FrameError
		if err != io.EOF && !errors.As(err, &fe) {
			t.Fatalf("ReadFrame: untyped error %v", err)
		}
		if err == io.EOF && len(data) != 0 {
			t.Fatalf("ReadFrame: clean EOF on %d bytes", len(data))
		}
		return
	}
	again, err := AppendFrame(nil, id, payload)
	if err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	if !bytes.Equal(again, data[:len(again)]) {
		t.Fatal("frame re-encoding differs from the bytes read")
	}
}

func fuzzQuery(t *testing.T, p *lph.Partitioner, data []byte) {
	msg, err := DecodeQuery(p, data)
	if err != nil {
		return
	}
	if want := QuerySize(len(msg.Subqueries), p.K()); want != len(data) {
		t.Fatalf("decoded %d subqueries from %d bytes, size model says %d", len(msg.Subqueries), len(data), want)
	}
	enc, err := EncodeQuery(p, msg)
	if err != nil {
		t.Fatalf("accepted query does not re-encode: %v", err)
	}
	msg2, err := DecodeQuery(p, enc)
	if err != nil {
		t.Fatalf("re-encoded query refused: %v", err)
	}
	if !reflect.DeepEqual(msg, msg2) {
		t.Fatalf("query changed across re-encoding:\n%+v\n%+v", msg, msg2)
	}
}

func fuzzResult(t *testing.T, data []byte) {
	entries, err := DecodeResult(data, 1)
	if err != nil {
		return
	}
	if want := ResultSize(len(entries)); want != len(data) {
		t.Fatalf("decoded %d entries from %d bytes, size model says %d", len(entries), len(data), want)
	}
	enc, err := EncodeResult(entries, 1)
	if err != nil {
		t.Fatalf("accepted result does not re-encode: %v", err)
	}
	entries2, err := DecodeResult(enc, 1)
	if err != nil {
		t.Fatalf("re-encoded result refused: %v", err)
	}
	if !reflect.DeepEqual(entries, entries2) {
		t.Fatal("result changed across re-encoding")
	}
}

func fuzzChunk(t *testing.T, data []byte) {
	c, err := DecodeChunk(data)
	if err != nil {
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("chunk: untyped error %v", err)
		}
		return
	}
	if c.EncodedSize() != len(data) {
		t.Fatalf("chunk of %d encoded bytes decoded from %d", c.EncodedSize(), len(data))
	}
	enc, err := AppendChunk(nil, &c)
	if err != nil {
		t.Fatalf("accepted chunk does not re-encode: %v", err)
	}
	c2, err := DecodeChunk(enc)
	if err != nil || !reflect.DeepEqual(c, c2) {
		t.Fatalf("chunk changed across re-encoding (%v)", err)
	}
}
