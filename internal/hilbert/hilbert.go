// Package hilbert implements the k-dimensional Hilbert space-filling
// curve (Skilling's transpose algorithm, "Programming the Hilbert
// curve", 2004).
//
// The paper's related work (§5) contrasts its k-d locality-preserving
// hash with SCRAP's Hilbert-curve mapping. The hash of Algorithm 2 —
// alternating one bisection per dimension — is exactly the Morton
// (Z-order) curve; this package provides the Hilbert alternative so
// the two mappings can be compared on locality (ablation A7): Hilbert
// guarantees consecutive keys are adjacent cells, so range queries
// decompose into fewer contiguous key runs, at the cost of a more
// expensive mapping and a harder inverse for the routing algorithms
// (which is why the paper's query refinement sticks to the k-d order).
package hilbert

import "fmt"

// Curve maps between points on a dims-dimensional grid with bits bits
// per coordinate and positions on the Hilbert curve. dims·bits must
// not exceed 64 so positions fit a uint64.
type Curve struct {
	dims, bits int
}

// New validates the geometry and returns a Curve.
func New(dims, bits int) (*Curve, error) {
	if dims <= 0 || bits <= 0 {
		return nil, fmt.Errorf("hilbert: dims and bits must be positive (got %d, %d)", dims, bits)
	}
	if dims*bits > 64 {
		return nil, fmt.Errorf("hilbert: dims·bits = %d exceeds 64", dims*bits)
	}
	return &Curve{dims: dims, bits: bits}, nil
}

// maxCoord returns the exclusive coordinate bound.
func (c *Curve) maxCoord() uint32 {
	return uint32(1) << uint(c.bits)
}

// Index returns the Hilbert-curve position of the given grid point.
// Coordinates must be < 2^bits.
func (c *Curve) Index(coords []uint32) (uint64, error) {
	if len(coords) != c.dims {
		return 0, fmt.Errorf("hilbert: got %d coordinates, want %d", len(coords), c.dims)
	}
	x := make([]uint32, c.dims)
	for i, v := range coords {
		if v >= c.maxCoord() {
			return 0, fmt.Errorf("hilbert: coordinate %d = %d exceeds %d bits", i, v, c.bits)
		}
		x[i] = v
	}
	c.axesToTranspose(x)
	return c.interleave(x), nil
}

// Coords inverts Index.
func (c *Curve) Coords(index uint64) ([]uint32, error) { //lint:allow deadexport the inverse that the round-trip and adjacency tests hold Index to
	if c.dims*c.bits < 64 && index >= uint64(1)<<uint(c.dims*c.bits) {
		return nil, fmt.Errorf("hilbert: index %d exceeds curve length", index)
	}
	x := c.deinterleave(index)
	c.transposeToAxes(x)
	return x, nil
}

// axesToTranspose converts coordinates to the transposed Hilbert
// representation in place (Skilling's AxestoTranspose).
func (c *Curve) axesToTranspose(x []uint32) {
	n := c.dims
	m := uint32(1) << uint(c.bits-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse (Skilling's TransposetoAxes).
func (c *Curve) transposeToAxes(x []uint32) {
	n := c.dims
	m := uint32(2) << uint(c.bits-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed representation into a single index:
// bit (bits-1-b) of x[i] becomes bit ((bits-1-b)*dims + (dims-1-i)) of
// the result — most significant first.
func (c *Curve) interleave(x []uint32) uint64 {
	var out uint64
	for b := c.bits - 1; b >= 0; b-- {
		for i := 0; i < c.dims; i++ {
			out <<= 1
			out |= uint64((x[i] >> uint(b)) & 1)
		}
	}
	return out
}

// deinterleave inverts interleave.
func (c *Curve) deinterleave(index uint64) []uint32 {
	x := make([]uint32, c.dims)
	shift := uint(c.dims*c.bits - 1)
	for b := c.bits - 1; b >= 0; b-- {
		for i := 0; i < c.dims; i++ {
			bit := (index >> shift) & 1
			x[i] |= uint32(bit) << uint(b)
			shift--
		}
	}
	return x
}

// MortonIndex returns the Z-order (bit-interleaved) position of the
// point — exactly the ordering the paper's Algorithm 2 induces when
// dimensions are bisected in round-robin order. Provided here for
// locality comparisons against the Hilbert order.
func (c *Curve) MortonIndex(coords []uint32) (uint64, error) {
	if len(coords) != c.dims {
		return 0, fmt.Errorf("hilbert: got %d coordinates, want %d", len(coords), c.dims)
	}
	for i, v := range coords {
		if v >= c.maxCoord() {
			return 0, fmt.Errorf("hilbert: coordinate %d = %d exceeds %d bits", i, v, c.bits)
		}
	}
	cp := append([]uint32(nil), coords...)
	return c.interleave(cp), nil
}
