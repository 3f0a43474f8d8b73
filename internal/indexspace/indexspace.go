// Package indexspace implements the landmark-based index space of
// §3.1: the contractive mapping from a generic metric space (D, d) to
// the k-dimensional vector space
//
//	x ↦ (d(x, l₁), d(x, l₂), …, d(x, l_k))
//
// and the conversion of a near-neighbor query (q, r) into the
// k-hypercube range query centered at the image of q with edge 2r,
// which by the triangle inequality contains the image of every object
// within distance r of q.
package indexspace

import (
	"fmt"

	"landmarkdht/internal/landmark"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
)

// Embedding binds a metric space to a concrete landmark set and the
// index-space boundary used for partitioning.
type Embedding[T any] struct {
	space     metric.Space[T]
	landmarks []T
	bounds    []lph.Bounds
}

// Option configures New.
type Option[T any] func(*config[T])

type config[T any] struct {
	sample []T
}

// WithSampleBoundary derives the index-space boundary from the
// landmark-selection sample (§3.1 boundary approach 2) instead of the
// metric's a-priori bound.
func WithSampleBoundary[T any](sample []T) Option[T] {
	return func(c *config[T]) { c.sample = sample }
}

// New creates an Embedding. The boundary of each dimension is, in
// order of preference: the per-dimension [min,max] landmark-to-sample
// distance when WithSampleBoundary is given; otherwise [0, Max] for a
// bounded metric. Unbounded metrics without a sample are rejected —
// wrap them with metric.Bound first (the paper's d' = d/(1+d)
// adjustment).
func New[T any](space metric.Space[T], landmarks []T, opts ...Option[T]) (*Embedding[T], error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("indexspace: no landmarks")
	}
	var cfg config[T]
	for _, o := range opts {
		o(&cfg)
	}
	var bounds []lph.Bounds
	switch {
	case len(cfg.sample) > 0:
		bounds = landmark.Boundary(landmarks, cfg.sample, space.Dist)
	case space.Bounded:
		bounds = make([]lph.Bounds, len(landmarks))
		for i := range bounds {
			bounds[i] = lph.Bounds{Lo: 0, Hi: space.Max}
		}
	default:
		return nil, fmt.Errorf("indexspace: metric %q is unbounded and no sample boundary was provided; wrap it with metric.Bound", space.Name)
	}
	return &Embedding[T]{space: space, landmarks: landmarks, bounds: bounds}, nil
}

// K returns the index-space dimensionality (the number of landmarks).
func (e *Embedding[T]) K() int { return len(e.landmarks) }

// Landmarks returns the landmark set (shared, not copied — landmarks
// are immutable once the platform is initialized).
func (e *Embedding[T]) Landmarks() []T { return e.landmarks }

// Bounds returns a copy of the per-dimension index-space boundary.
func (e *Embedding[T]) Bounds() []lph.Bounds { return append([]lph.Bounds(nil), e.bounds...) }

// Map embeds a data object: coordinate i is the distance from x to
// landmark i. Coordinates are not clamped here; the locality-
// preserving hash clamps to the boundary when keying (the paper maps
// out-of-boundary objects to boundary points).
func (e *Embedding[T]) Map(x T) []float64 {
	return e.MapInto(x, make([]float64, len(e.landmarks)))
}

// MapInto embeds x into the caller-provided buffer dst, which must
// have length K(), and returns dst. Hot paths (one embedding per query)
// reuse one buffer across calls instead of allocating per Map; the
// buffer must not be retained past its consumption (scratch-ownership
// rules in DESIGN.md §9).
func (e *Embedding[T]) MapInto(x T, dst []float64) []float64 {
	if len(dst) != len(e.landmarks) {
		panic(fmt.Sprintf("indexspace: MapInto buffer has %d coordinates, want %d", len(dst), len(e.landmarks)))
	}
	for i, l := range e.landmarks {
		dst[i] = e.space.Dist(x, l)
	}
	return dst
}

// MapBatch embeds every object of objs, writing all coordinates into
// one arena: row i is arena[i*k : (i+1)*k]. The caller provides the
// coordinate arena (grown if too small) and receives the per-object
// rows plus the arena for reuse. One batch costs two allocations (rows
// header + arena) instead of one per object, and the contiguous layout
// keeps bulk loads cache-friendly. Rows alias the arena; they are
// long-lived (index entries retain them), so pass a fresh or retired
// arena — never one whose rows are still referenced elsewhere.
func (e *Embedding[T]) MapBatch(objs []T, arena []float64) (rows [][]float64, out []float64) {
	k := len(e.landmarks)
	need := len(objs) * k
	if cap(arena) < need {
		arena = make([]float64, need)
	}
	arena = arena[:need]
	rows = make([][]float64, len(objs))
	for i, x := range objs {
		row := arena[i*k : (i+1)*k : (i+1)*k]
		e.MapInto(x, row)
		rows[i] = row
	}
	return rows, arena
}

// Distance returns d(a, b) in the original metric space (used for the
// exact refinement step that removes false positives).
func (e *Embedding[T]) Distance(a, b T) float64 { return e.space.Dist(a, b) }

// Partitioner builds the locality-preserving hash partitioner over
// this embedding's boundary, rotated by the offset derived from the
// metric-space name (§3.4). Pass rotate=false to disable rotation
// (used by the rotation ablation).
func (e *Embedding[T]) Partitioner(rotate bool) (*lph.Partitioner, error) {
	p, err := lph.NewWithBounds(e.bounds)
	if err != nil {
		return nil, err
	}
	if rotate {
		p = p.WithRotation(lph.PhiForName(e.space.Name))
	}
	return p, nil
}
