// Package lph implements the paper's locality-preserving hashing
// (§3.2, Algorithm 2): a k-d-tree-style recursive bisection of the
// k-dimensional index space into 2^m equal hypercuboids, each
// identified by an m-bit key, plus the prefix-key arithmetic used by
// the query routing algorithms (§3.3) and the per-index rotation
// offsets used for static load balancing (§3.4).
//
// m is fixed at 64: keys are uint64 and ring arithmetic is the native
// modulo-2^64 wrap-around of unsigned integers. The paper indexes bits
// from 1 at the most significant end; bit i of a key is uint64 bit
// (64 - i).
package lph

import (
	"fmt"
	"hash/fnv"
	"math"
)

// M is the number of bits in key and node identifiers (the paper's
// simulations also use 64).
const M = 64

// Key is an m-bit identifier on the Chord ring.
type Key = uint64

// Bounds is the closed interval covered by one dimension of the index
// space.
type Bounds struct {
	Lo, Hi float64
}

// Mid returns the midpoint of the interval.
func (b Bounds) Mid() float64 { return (b.Lo + b.Hi) / 2 }

// Contains reports whether x lies in [Lo, Hi].
func (b Bounds) Contains(x float64) bool { return x >= b.Lo && x <= b.Hi }

// Clamp returns x restricted to [Lo, Hi]. The paper maps objects whose
// landmark distances exceed the boundary to the boundary points.
func (b Bounds) Clamp(x float64) float64 {
	if x < b.Lo {
		return b.Lo
	}
	if x > b.Hi {
		return b.Hi
	}
	return x
}

// Partitioner carries the static description of one index scheme's
// key space: the dimensionality k, the per-dimension boundaries, and
// the rotation offset φ applied when the 1-d key space is laid onto
// the ring.
type Partitioner struct {
	k      int
	bounds []Bounds
	phi    Key
	// wide is set when some bound lies beyond ±MaxFloat64/2, where a
	// midpoint's sum can overflow to ±Inf and the narrowed interval
	// leave the boundary: Hash then runs Algorithm 2's per-step clamp.
	wide bool
}

// wide reports whether a boundary needs Algorithm 2's per-step clamp
// (Partitioner.wide).
func wide(bounds []Bounds) bool {
	for _, b := range bounds {
		if !(math.Abs(b.Lo) <= math.MaxFloat64/2 && math.Abs(b.Hi) <= math.MaxFloat64/2) {
			return true
		}
	}
	return false
}

// New creates a Partitioner for a k-dimensional index space where
// every dimension shares the boundary [lo, hi] and no rotation is
// applied.
func New(k int, lo, hi float64) (*Partitioner, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lph: dimensionality must be positive, got %d", k)
	}
	if hi <= lo {
		return nil, fmt.Errorf("lph: empty dimension boundary [%v, %v]", lo, hi)
	}
	b := make([]Bounds, k)
	for i := range b {
		b[i] = Bounds{lo, hi}
	}
	return &Partitioner{k: k, bounds: b, wide: wide(b)}, nil
}

// NewWithBounds creates a Partitioner with per-dimension boundaries
// (used when the boundary comes from the landmark selection procedure,
// §3.1 approach 2).
func NewWithBounds(bounds []Bounds) (*Partitioner, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("lph: no dimensions")
	}
	for i, b := range bounds {
		if b.Hi <= b.Lo {
			return nil, fmt.Errorf("lph: empty boundary [%v, %v] on dimension %d", b.Lo, b.Hi, i)
		}
	}
	cp := make([]Bounds, len(bounds))
	copy(cp, bounds)
	return &Partitioner{k: len(bounds), bounds: cp, wide: wide(cp)}, nil
}

// WithRotation returns a copy of p whose keys are rotated by φ on the
// ring (§3.4 space mapping rotation).
func (p *Partitioner) WithRotation(phi Key) *Partitioner {
	cp := *p
	cp.bounds = append([]Bounds(nil), p.bounds...)
	cp.phi = phi
	return &cp
}

// K returns the dimensionality of the index space.
func (p *Partitioner) K() int { return p.k }

// Bounds returns the boundary of dimension j.
func (p *Partitioner) Bounds(j int) Bounds { return p.bounds[j] }

// AllBounds returns a copy of all dimension boundaries.
func (p *Partitioner) AllBounds() []Bounds { return append([]Bounds(nil), p.bounds...) }

// Phi returns the rotation offset.
func (p *Partitioner) Phi() Key { return p.phi }

// Hash is Algorithm 2: it identifies the hypercuboid containing the
// index point and returns its 64-bit key in *unrotated* space.
// Coordinates outside the boundary are clamped (the paper maps such
// objects to the boundary points). The point must have exactly k
// coordinates.
//
// The bisection is Algorithm 2's, step for step and bit for bit
// (TestHashMatchesAlgorithm2 holds it to the literal loop), written so
// that no step branches on the data or divides:
//   - Each coordinate is clamped once, to its dimension's boundary.
//     Within ±MaxFloat64/2 a midpoint lies inside its interval, and a
//     clamped x stays inside the narrowed one — lo moves up to mid only
//     when x > mid, hi down to mid only when it is not — so the literal
//     per-step Clamp to the current interval is the identity after the
//     first step. NaN passes Clamp and fails every x > mid: its
//     dimension's bits are all 0, as in the literal loop.
//   - The divisions run in rounds over the dimensions, not as one loop
//     that takes (i-1) mod k at every step.
//   - The bit is the comparison x > mid, which compiles to a flag set,
//     and the new bound is chosen by masking the bounds' bit patterns
//     with it.
//
// A boundary beyond ±MaxFloat64/2 (wide) runs the literal loop.
func (p *Partitioner) Hash(point []float64) Key {
	if len(point) != p.k {
		panic(fmt.Sprintf("lph: point has %d coordinates, want %d", len(point), p.k))
	}
	if p.wide {
		return p.hashWide(point)
	}
	// Per-dimension current range, narrowed as we descend, and the
	// clamped coordinate it is tested against.
	type bisection struct {
		lo, hi uint64 // math.Float64bits of the bounds
		x      float64
	}
	var local [16]bisection
	var r []bisection
	if p.k <= len(local) {
		r = local[:p.k]
	} else {
		r = make([]bisection, p.k)
	}
	for j, b := range p.bounds {
		r[j] = bisection{math.Float64bits(b.Lo), math.Float64bits(b.Hi), b.Clamp(point[j])}
	}
	var key Key
	// Rounds of one division per dimension; the last round is cut
	// short where the 64 bits run out.
	for left := M; left > 0; left -= len(r) {
		r = r[:min(left, len(r))]
		for j := range r {
			d := &r[j]
			mid := (math.Float64frombits(d.lo) + math.Float64frombits(d.hi)) / 2
			bit := above(d.x, mid)
			key = key<<1 | bit
			up := -bit // all ones when lo moves up to mid, zero when hi moves down
			m := math.Float64bits(mid)
			d.lo ^= (d.lo ^ m) & up
			d.hi ^= (d.hi ^ m) &^ up
		}
	}
	return key
}

// above is 1 when x > mid and 0 otherwise, NaN included: the compiler
// turns it into one comparison and a flag set, not a branch.
func above(x, mid float64) Key {
	if x > mid {
		return 1
	}
	return 0
}

// hashWide is Algorithm 2 with its Clamp at every step, for a wide
// boundary: there a midpoint can overflow to ±Inf, the interval leave
// the boundary, and the point clamped against it differ from the point
// clamped once.
func (p *Partitioner) hashWide(point []float64) Key {
	r := append([]Bounds(nil), p.bounds...)
	var key Key
	for i, j := 0, 0; i < M; i++ {
		mid := r[j].Mid()
		if r[j].Clamp(point[j]) > mid {
			r[j].Lo = mid
			key = key<<1 | 1
		} else {
			r[j].Hi = mid
			key <<= 1
		}
		if j++; j == len(r) {
			j = 0
		}
	}
	return key
}

// Ring returns the on-ring position for an unrotated key: key + φ
// (arithmetic modulo 2^64).
func (p *Partitioner) Ring(key Key) Key { return key + p.phi }

// Unring maps an on-ring identifier back to unrotated key space.
func (p *Partitioner) Unring(id Key) Key { return id - p.phi }

// MapPoint composes Hash and Ring: the node responsible for point is
// successor(MapPoint(point)).
func (p *Partitioner) MapPoint(point []float64) Key { return p.Ring(p.Hash(point)) }

// Cuboid reconstructs the per-dimension bounds of the hypercuboid
// denoted by the first prelen bits of prekey (in unrotated space).
// prelen must be in [0, 64].
func (p *Partitioner) Cuboid(prekey Key, prelen int) []Bounds {
	if prelen < 0 || prelen > M {
		panic(fmt.Sprintf("lph: prefix length %d out of [0,64]", prelen))
	}
	r := append([]Bounds(nil), p.bounds...)
	for i, j := 1, 0; i <= prelen; i++ {
		b := &r[j]
		if GetBit(prekey, i) == 1 {
			b.Lo = b.Mid()
		} else {
			b.Hi = b.Mid()
		}
		if j++; j == len(r) {
			j = 0
		}
	}
	return r
}

// SplitMid returns the midpoint at which division number p (1-based)
// splits its dimension, for the cuboid identified by the first p-1
// bits of prekey. This is the prefix-walk of Algorithm 4 lines 1–12.
func (pt *Partitioner) SplitMid(prekey Key, p int) float64 {
	if p < 1 || p > M {
		panic(fmt.Sprintf("lph: division number %d out of [1,64]", p))
	}
	j := (p - 1) % pt.k
	r := pt.bounds[j]
	// Walk earlier divisions of the same dimension: positions
	// i ≡ p (mod k), i < p.
	for i := j + 1; i < p; i += pt.k {
		if GetBit(prekey, i) == 1 {
			r.Lo = r.Mid()
		} else {
			r.Hi = r.Mid()
		}
	}
	return r.Mid()
}

// --- bit/prefix helpers -------------------------------------------------

// GetBit returns the i-th bit (1-based from the most significant end)
// of key, as 0 or 1.
func GetBit(key Key, i int) uint {
	return uint(key>>(M-i)) & 1
}

// SetBit returns key with its i-th bit (1-based from the MSB) set.
func SetBit(key Key, i int) Key {
	return key | 1<<(M-i)
}

// ClearBit returns key with its i-th bit (1-based from the MSB)
// cleared.
func ClearBit(key Key, i int) Key {
	return key &^ (1 << (M - i))
}

// PrefixMask returns a mask covering the first l bits.
func PrefixMask(l int) Key {
	if l <= 0 {
		return 0
	}
	if l >= M {
		return ^Key(0)
	}
	return ^Key(0) << (M - l)
}

// Prefix returns key with everything after the first l bits zeroed —
// the paper's prefix_key construction ("padding zeros to the right").
func Prefix(key Key, l int) Key { return key & PrefixMask(l) }

// SamePrefix reports whether a and b agree on their first l bits.
func SamePrefix(a, b Key, l int) bool { return (a^b)&PrefixMask(l) == 0 }

// FirstZeroBitAfter returns the smallest position j in (from, 64] such
// that bit j of key is 0, or 0 if no such position exists (all ones).
// This is the search in Algorithm 5 line 5.
func FirstZeroBitAfter(key Key, from int) int {
	for j := from + 1; j <= M; j++ {
		if GetBit(key, j) == 0 {
			return j
		}
	}
	return 0
}

// CuboidSpan returns the half-open key interval [lo, hi) covered by
// the prefix (prekey, prelen); for prelen == 0, hi wraps to 0 and the
// interval is the whole ring.
func CuboidSpan(prekey Key, prelen int) (lo, hi Key) {
	lo = Prefix(prekey, prelen)
	hi = lo + (Key(1) << (M - prelen)) // wraps to 0 when prelen == 0
	return lo, hi
}

// PhiForName derives a pseudo-random rotation offset from an index
// scheme's name — the paper's "random hashing function". FNV-1a alone
// has weak avalanche for names differing only in a trailing character
// (the offsets would differ by a small multiple of the FNV prime,
// leaving similar hot regions on the same node), so the output is
// passed through a splitmix64 finalizer.
func PhiForName(name string) Key {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
