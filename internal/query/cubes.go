package query

import "landmarkdht/internal/lph"

// Cubes is an arena of query cubes: New cuts k-bound cubes from one
// slab, and Reset takes them all back at once. A caller that knows when
// every region of a piece of work is dead — core at the end of a query,
// netrt at the end of one message — resets its arena then, and the
// splits and refinements of the next piece of work reuse the memory
// instead of allocating a cube each.
//
// A full slab is replaced by one twice its size; the cubes already cut
// from the old one stay valid, and the arena keeps only the new one, so
// after a few pieces of work a slab holds a whole piece and New stops
// allocating. Every cube is capped at its k bounds, so appending to one
// never runs into its neighbour. A nil *Cubes allocates every cube on
// the heap.
type Cubes struct {
	slab []lph.Bounds
}

// minCubes is how many cubes a first slab holds.
const minCubes = 8

// New returns a zeroed cube of k bounds.
func (c *Cubes) New(k int) []lph.Bounds {
	if c == nil {
		return make([]lph.Bounds, k)
	}
	n := len(c.slab)
	if n+k > cap(c.slab) {
		c.slab = make([]lph.Bounds, 0, max(2*cap(c.slab), minCubes*k))
		n = 0
	}
	c.slab = c.slab[:n+k]
	return c.slab[n : n+k : n+k]
}

// Clone is Region.Clone with the copy's cube cut from the arena.
func (c *Cubes) Clone(r Region) Region {
	cp := r
	cp.Cube = c.New(len(r.Cube))
	copy(cp.Cube, r.Cube)
	return cp
}

// Reset takes back every cube New has handed out: the caller promises
// that none is used again. The slab is zeroed for the next piece of
// work.
func (c *Cubes) Reset() {
	clear(c.slab)
	c.slab = c.slab[:0]
}
