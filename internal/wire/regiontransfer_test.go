package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestRegionChunkRoundTrip(t *testing.T) {
	in := RegionChunk{
		Transfer: 0xDEADBEEF01020304,
		Index:    "docs-l1",
		Seq:      41,
		Last:     true,
		Data:     bytes.Repeat([]byte{7, 1}, 500),
	}
	enc, err := AppendChunk(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != in.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), in.EncodedSize())
	}
	out, err := DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Transfer != in.Transfer || out.Index != in.Index || out.Seq != in.Seq || out.Last != in.Last || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// Data must be a copy, not a view of the input.
	enc[len(enc)-1] ^= 0xFF
	if !bytes.Equal(out.Data, in.Data) {
		t.Fatal("decoded Data aliases the input buffer")
	}
}

func TestRegionChunkEmptyAndNotLast(t *testing.T) {
	in := RegionChunk{Transfer: 1, Index: "x", Seq: 0}
	enc, err := AppendChunk(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Last || out.Seq != 0 || len(out.Data) != 0 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestRegionChunkOversized(t *testing.T) {
	in := RegionChunk{Transfer: 1, Index: "x", Data: make([]byte, MaxFramePayload)}
	if _, err := AppendChunk(nil, &in); err == nil {
		t.Fatal("oversized chunk encoded without error")
	}
	var fe *FrameError
	_, err := AppendChunk(nil, &in)
	if !errors.As(err, &fe) || fe.Reason != "oversized" {
		t.Fatalf("want oversized FrameError, got %v", err)
	}
	// Data filling the frame past its header and a maximal index name
	// must fit.
	ok := RegionChunk{Transfer: 1, Index: string(make([]byte, maxIndexName)), Data: make([]byte, MaxFramePayload-ChunkHeaderBytes-maxIndexName)}
	if _, err := AppendChunk(nil, &ok); err != nil {
		t.Fatalf("frame-filling chunk refused: %v", err)
	}
}

func TestRegionChunkTruncated(t *testing.T) {
	in := RegionChunk{Transfer: 9, Index: "idx", Seq: 3, Data: []byte("abcdef")}
	enc, err := AppendChunk(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeChunk(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	// Trailing garbage must be rejected too (chunk is a whole payload).
	if _, err := DecodeChunk(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestHostileTransferFrameSweep is the hostile-stream sweep for the
// region chunk codec core's streams use, mirroring the WAL's
// TestTornTailEveryOffset: a valid encoding truncated at every byte
// offset, extended with trailing garbage, or corrupted in its declared
// lengths must decode to a typed *FrameError — never a panic, never a
// partial struct, never an allocation proportional to the declared
// (rather than actual) size.
func TestHostileTransferFrameSweep(t *testing.T) {
	chunk := RegionChunk{Transfer: 7, Index: "ix", Seq: 3, Last: true, Data: bytes.Repeat([]byte{0xAB}, 64)}
	enc, err := AppendChunk(nil, &chunk)
	if err != nil {
		t.Fatal(err)
	}
	// The intact encoding must decode.
	if _, err := DecodeChunk(enc); err != nil {
		t.Fatalf("intact encoding refused: %v", err)
	}
	// Truncation at every byte offset.
	for cut := 0; cut < len(enc); cut++ {
		_, err := DecodeChunk(enc[:cut])
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: want *FrameError, got %v", cut, err)
		}
	}
	// Trailing garbage of several lengths.
	for _, extra := range []int{1, 7, 1024} {
		junk := append(append([]byte(nil), enc...), bytes.Repeat([]byte{0xFF}, extra)...)
		_, err := DecodeChunk(junk)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%d trailing bytes: want *FrameError, got %v", extra, err)
		}
	}
}

// TestHostileChunkDeclaredLengths corrupts a chunk's declared name and
// data lengths to every byte value at their offsets: a declared length
// that disagrees with the actual payload must be a typed error, and an
// oversized declared data length must never drive an allocation (the
// decoder validates against the actual buffer before copying).
func TestHostileChunkDeclaredLengths(t *testing.T) {
	chunk := RegionChunk{Transfer: 1, Index: "x", Seq: 0, Data: []byte("abcdef")}
	enc, err := AppendChunk(nil, &chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets 13..14 hold the name length, 15..18 the data length.
	for off := 13; off < 19; off++ {
		for b := 0; b < 256; b++ {
			mut := append([]byte(nil), enc...)
			if mut[off] == byte(b) {
				continue
			}
			mut[off] = byte(b)
			_, err := DecodeChunk(mut)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("offset %d = %#x decoded without a typed error", off, b)
			}
		}
	}
	// A maximal declared data length with no data behind it.
	mut := append([]byte(nil), enc[:ChunkHeaderBytes]...)
	mut[15], mut[16], mut[17], mut[18] = 0xFF, 0xFF, 0xFF, 0xFF
	_, err = DecodeChunk(mut)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("maximal declared length: want *FrameError, got %v", err)
	}
}
