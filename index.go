package landmarkdht

import (
	"fmt"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/core"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
)

// SelectionMethod chooses the landmark-selection algorithm (§3.1).
type SelectionMethod string

const (
	// GreedySelection is Algorithm 1 (max-min).
	GreedySelection SelectionMethod = "greedy"
	// KMeansSelection uses cluster centroids (requires a Meaner).
	KMeansSelection SelectionMethod = "kmeans"
	// KMedoidsSelection clusters without centroids (any metric space).
	KMedoidsSelection SelectionMethod = "kmedoids"
)

// IndexOptions configures one index scheme.
type IndexOptions struct {
	// Landmarks is the index-space dimensionality k (default 10).
	Landmarks int
	// Selection picks the landmark algorithm (default KMeansSelection
	// when a Meaner is supplied, else GreedySelection).
	Selection SelectionMethod
	// SampleSize is the selection sample (default 2000, the paper's
	// §4.2 value, clamped to the dataset size).
	SampleSize int
	// BoundaryFromSample derives the index-space boundary from the
	// selection sample (§3.1 approach 2) instead of the metric bound.
	// Required for unbounded metrics.
	BoundaryFromSample bool
	// DisableRotation turns off the §3.4 space-mapping rotation
	// (enabled by default so multiple indexes decorrelate).
	DisableRotation bool
}

func (o *IndexOptions) fillDefaults(hasMean bool) {
	if o.Landmarks <= 0 {
		o.Landmarks = 10
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 2000
	}
	if o.Selection == "" {
		if hasMean {
			o.Selection = KMeansSelection
		} else {
			o.Selection = GreedySelection
		}
	}
}

// Match is one search result.
type Match[T any] struct {
	// ID is the object's position in the indexed dataset (insertion
	// order).
	ID int
	// Object is the matching object.
	Object T
	// Distance is the exact metric distance to the query.
	Distance float64
}

// SearchStats carries the paper's per-query cost metrics.
type SearchStats struct {
	// Hops is the maximum path length to reach all index nodes.
	Hops int
	// ResponseTime is the time to the first result.
	ResponseTime time.Duration
	// MaxLatency is the time to the last result.
	MaxLatency time.Duration
	// QueryMessages / QueryBytes cover query delivery.
	QueryMessages int
	QueryBytes    int64
	// ResultMessages / ResultBytes cover result delivery.
	ResultMessages int
	ResultBytes    int64
	// IndexNodes is the number of nodes that answered.
	IndexNodes int
	// Candidates is the pre-refinement candidate count.
	Candidates int
	// Retries is the number of retransmissions the reliability layer
	// issued for this query.
	Retries int
	// Hedges is the number of hedged subqueries this query re-sent to
	// successor replicas.
	Hedges int
	// Complete reports whether every subquery was answered: a complete
	// range search is exact. When false — subqueries were lost for good
	// or a deadline expired first — the results are a correct subset and
	// DroppedSubqueries / UncoveredRegions size the gap.
	Complete bool
	// DroppedSubqueries is the number of subqueries lost for good.
	DroppedSubqueries int
	// UncoveredRegions is the number of index-space regions whose
	// answers are missing from an incomplete result.
	UncoveredRegions int
}

func searchStats(qr *core.QueryResult) SearchStats {
	qs := qr.Stats
	return SearchStats{
		Hops:              qs.Hops,
		ResponseTime:      qs.ResponseTime(),
		MaxLatency:        qs.MaxLatency(),
		QueryMessages:     qs.QueryMsgs,
		QueryBytes:        qs.QueryBytes,
		ResultMessages:    qs.ResultMsgs,
		ResultBytes:       qs.ResultBytes,
		IndexNodes:        qs.IndexNodes,
		Candidates:        qs.Candidates,
		Retries:           qs.Retries,
		Hedges:            qs.Hedges,
		Complete:          qr.Complete,
		DroppedSubqueries: qr.DroppedSubqueries,
		UncoveredRegions:  len(qr.Uncovered),
	}
}

// Index is one deployed index scheme over objects of type T.
type Index[T any] struct {
	p       *Platform
	emb     *indexspace.Embedding[T]
	name    string
	objects []T
	maxDist float64
	space   Space[T]
	mean    Meaner[T]
	opts    IndexOptions
	refresh int64 // bumps the sampling seed on each landmark refresh
	// slab is objects laid out for metric.L2Rows when the space is
	// Euclidean (metric.NewL2Slab), else nil: it grows and shrinks with
	// objects.
	slab *metric.L2Slab
	// centerBuf is the reusable query-embedding buffer: one embedding
	// per search, consumed synchronously by the query router. Safe
	// because an Index (like its Platform) is single-goroutine.
	centerBuf []float64
}

// mapCenter embeds a query point into the index's reusable buffer.
// The result is only valid until the next search on this index.
func (ix *Index[T]) mapCenter(q T) []float64 {
	if len(ix.centerBuf) != ix.emb.K() {
		ix.centerBuf = make([]float64, ix.emb.K())
	}
	return ix.emb.MapInto(q, ix.centerBuf)
}

// AddIndex deploys a new index scheme on the platform: landmarks are
// selected from a random sample of objects (the §3.1 well-known-node
// procedure), the index space is partitioned with the locality-
// preserving hash, and all objects are loaded onto their responsible
// nodes. mean may be nil for metric spaces without centroids.
//
// The objects slice is retained by the index; do not mutate it.
func AddIndex[T any](p *Platform, space Space[T], objects []T, mean Meaner[T], opts IndexOptions) (*Index[T], error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("landmarkdht: no objects to index")
	}
	opts.fillDefaults(mean != nil)
	if opts.Landmarks > len(objects) {
		return nil, fmt.Errorf("landmarkdht: %d landmarks from %d objects", opts.Landmarks, len(objects))
	}
	lms, sample, err := pickLandmarks(objects, space, mean, opts,
		p.opts.Seed+int64(len(space.Name))*31)
	if err != nil {
		return nil, err
	}

	var boundary []T
	if opts.BoundaryFromSample {
		boundary = sample
	}
	ix := &Index[T]{p: p, name: space.Name, objects: objects,
		space: space, mean: mean, opts: opts, slab: metric.NewL2Slab(space, objects)}
	if err := ix.deploy(lms, boundary, false); err != nil {
		return nil, err
	}
	return ix, nil
}

// deploy embeds every object against landmarks (the index-space
// boundary derived from boundary when it is non-nil) and loads the
// scheme, removing the one it replaces first when replace is set: the
// tail AddIndex and ReindexWith share. The index adopts the new
// embedding only once the load succeeded.
func (ix *Index[T]) deploy(landmarks, boundary []T, replace bool) error {
	var iopts []indexspace.Option[T]
	if boundary != nil {
		iopts = append(iopts, indexspace.WithSampleBoundary(boundary))
	}
	emb, err := indexspace.New(ix.space, landmarks, iopts...)
	if err != nil {
		return err
	}
	part, err := emb.Partitioner(!ix.opts.DisableRotation)
	if err != nil {
		return err
	}
	maxDist := ix.space.Max
	if !ix.space.Bounded {
		// Sample boundary: the widest dimension bounds distances we
		// can meaningfully query.
		maxDist = 0
		for _, b := range emb.Bounds() {
			maxDist = max(maxDist, b.Hi)
		}
	}
	cix := &core.Index{
		Name:    ix.name,
		Part:    part,
		MaxDist: maxDist,
		Dist: func(payload any, obj core.ObjectID) float64 {
			return ix.space.Dist(payload.(T), ix.objects[obj])
		},
	}
	if ix.slab != nil {
		// Exact distances a batch at a time over the slab.
		cix.Refine = ix.slab.Refine
	}
	// One MapBatch arena: two allocations for the whole load instead of
	// one per object, and contiguous coordinates for the bulk-load scan.
	rows, _ := emb.MapBatch(ix.objects, nil)
	sys := ix.p.sys
	if replace {
		if err := sys.RemoveIndex(ix.name); err != nil {
			return err
		}
	}
	if err := sys.DeployIndex(cix); err != nil {
		return err
	}
	if err := sys.BulkLoadRows(ix.name, rows); err != nil {
		return err
	}
	ix.emb, ix.maxDist = emb, maxDist
	return nil
}

// selectionMethods maps each SelectionMethod to landmark.Select's.
var selectionMethods = map[SelectionMethod]landmark.Method{
	GreedySelection:   landmark.MaxMin,
	KMeansSelection:   landmark.Centroids,
	KMedoidsSelection: landmark.Medoids,
}

// pickLandmarks runs the §3.1 selection procedure over a seeded random
// sample of the objects.
func pickLandmarks[T any](objects []T, space Space[T], mean Meaner[T], opts IndexOptions, seed int64) (lms, sample []T, err error) {
	method, ok := selectionMethods[opts.Selection]
	if !ok {
		return nil, nil, fmt.Errorf("landmarkdht: unknown selection method %q", opts.Selection)
	}
	return landmark.Select(method, objects, opts.SampleSize, opts.Landmarks, space.Dist, mean, seed)
}

// ReindexWith installs a new landmark set (§6 future work #3): every
// object is re-embedded against the new landmarks and migrated to its
// new responsible node. The migration traffic is charged to the
// overlay's transfer counters. Queries issued after ReindexWith
// returns see the new index space.
func (ix *Index[T]) ReindexWith(landmarks []T, boundarySample []T) error {
	if len(landmarks) == 0 {
		return fmt.Errorf("landmarkdht: empty landmark set")
	}
	if boundarySample == nil && !ix.space.Bounded {
		return fmt.Errorf("landmarkdht: unbounded metric requires a boundary sample")
	}
	if err := ix.deploy(landmarks, boundarySample, true); err != nil {
		return err
	}
	ix.p.sys.Network().RecordTraffic(chord.KindTransfer, core.TransferEntryBytes*len(ix.objects))
	return nil
}

// RefreshLandmarks periodically re-evaluates the landmark set (§6
// future work #3): a new set is selected from a fresh sample and
// adopted if its dispersion (minimum pairwise landmark distance, the
// §3.1 quality measure) beats the current set by the threshold factor.
// It reports whether the new set was adopted.
func (ix *Index[T]) RefreshLandmarks(threshold float64) (bool, error) {
	ix.refresh++
	lms, sample, err := pickLandmarks(ix.objects, ix.space, ix.mean, ix.opts,
		ix.p.opts.Seed+int64(len(ix.name))*31+ix.refresh*7919)
	if err != nil {
		return false, err
	}
	oldSpread := landmark.Spread(ix.emb.Landmarks(), ix.space.Dist)
	newSpread := landmark.Spread(lms, ix.space.Dist)
	if newSpread <= oldSpread*(1+threshold) {
		return false, nil
	}
	var boundary []T
	if ix.opts.BoundaryFromSample || !ix.space.Bounded {
		boundary = sample
	}
	if err := ix.ReindexWith(lms, boundary); err != nil {
		return false, err
	}
	return true, nil
}

// Replicate places every entry on the copies−1 nodes succeeding its
// primary (Chord's standard soft-state replication): when a node
// crashes, the first replica is the new successor of its keys and
// answers queries immediately, with no recovery step. Incompatible
// with dynamic load migration.
func (ix *Index[T]) Replicate(copies int) error { return ix.p.sys.ReplicateAll(ix.name, copies) }

// Name returns the index scheme name.
func (ix *Index[T]) Name() string { return ix.name }

// Len returns the number of indexed objects.
func (ix *Index[T]) Len() int { return len(ix.objects) }

// Landmarks returns the selected landmark set.
func (ix *Index[T]) Landmarks() []T { return ix.emb.Landmarks() }

// MaxDistance returns the maximum meaningful query range.
func (ix *Index[T]) MaxDistance() float64 { return ix.maxDist }

// Object returns the indexed object with the given id.
func (ix *Index[T]) Object(id int) T { return ix.objects[id] }

// Insert publishes a new object through the overlay: a Chord lookup
// resolves the responsible node and the index entry travels there. It
// returns once the entry is placed or the publish has failed: under
// Options.Retry, when every attempt is lost or the source node dies,
// within the retry budget of simulated time. If the entry is not placed
// the index is left as it was.
func (ix *Index[T]) Insert(obj T) (int, error) {
	id := len(ix.objects)
	entry := core.Entry{Obj: core.ObjectID(id), Point: ix.emb.Map(obj)}
	ix.objects = append(ix.objects, obj)
	if ix.slab != nil {
		ix.slab.Append(any(obj).(metric.Vector))
	}
	var placeErr error
	err := ix.p.rt.Await(opTimeout, func(finish func()) error {
		return ix.p.sys.Publish(ix.name, ix.p.randomNode(), entry,
			func(_ uint64, _ int, err error) { placeErr = err; finish() })
	})
	if err == nil {
		err = placeErr
	}
	if err != nil {
		ix.objects = ix.objects[:id]
		if ix.slab != nil {
			ix.slab.Truncate(id)
		}
		return 0, err
	}
	return id, nil
}

// QueryTrace is the recorded distributed execution of one query: the
// routing, splitting, refinement and answer steps across the overlay.
type QueryTrace = core.Trace

// RangeSearchTraced is RangeSearch with execution tracing: the
// returned trace reconstructs how the query travelled the embedded
// DHT trees (which nodes routed, split, refined and answered it).
func (ix *Index[T]) RangeSearchTraced(q T, r float64) ([]Match[T], SearchStats, *QueryTrace, error) {
	return ix.search(q, r, core.QueryOpts{Trace: true})
}

// RangeSearch returns every object within distance r of q, exactly
// (the contractive mapping guarantees no false negatives; exact
// refinement removes false positives). The query is issued from a
// random node, as in the paper's workloads.
func (ix *Index[T]) RangeSearch(q T, r float64) ([]Match[T], SearchStats, error) {
	matches, stats, _, err := ix.search(q, r, core.QueryOpts{})
	return matches, stats, err
}

// NearestSearch implements the paper's recall protocol: every index
// node intersecting the range-r query cube returns its k nearest
// candidates and the querier merges them into a global top-k. With a
// generous r this returns the true k nearest neighbors.
func (ix *Index[T]) NearestSearch(q T, k int, r float64) ([]Match[T], SearchStats, error) {
	if k <= 0 {
		return nil, SearchStats{}, fmt.Errorf("landmarkdht: k must be positive")
	}
	matches, stats, _, err := ix.search(q, r, core.QueryOpts{TopK: k})
	return matches, stats, err
}

// NearestK finds the exact k nearest neighbors by iterative range
// expansion: it starts from rStart (default: 1% of the metric bound)
// and doubles the range until k results lie within the guaranteed
// radius. This is the §6 "future work" exact-KNN driver.
func (ix *Index[T]) NearestK(q T, k int) ([]Match[T], SearchStats, error) {
	if k <= 0 {
		return nil, SearchStats{}, fmt.Errorf("landmarkdht: k must be positive")
	}
	r := ix.maxDist / 100
	if r <= 0 {
		r = 1
	}
	agg := SearchStats{Complete: true}
	for {
		matches, stats, _, err := ix.search(q, r, core.QueryOpts{})
		aggAdd(&agg, stats)
		if err != nil {
			return nil, agg, err
		}
		// All results within r are exact and complete; if we have k of
		// them we are done.
		if len(matches) >= k {
			return matches[:k], agg, nil
		}
		if r >= ix.maxDist {
			return matches, agg, nil // fewer than k objects in range
		}
		r *= 2
		if r > ix.maxDist {
			r = ix.maxDist
		}
	}
}

func aggAdd(agg *SearchStats, s SearchStats) {
	if s.Hops > agg.Hops {
		agg.Hops = s.Hops
	}
	agg.ResponseTime += s.ResponseTime
	agg.MaxLatency += s.MaxLatency
	agg.QueryMessages += s.QueryMessages
	agg.QueryBytes += s.QueryBytes
	agg.ResultMessages += s.ResultMessages
	agg.ResultBytes += s.ResultBytes
	if s.IndexNodes > agg.IndexNodes {
		agg.IndexNodes = s.IndexNodes
	}
	agg.Candidates += s.Candidates
	agg.Retries += s.Retries
	agg.Hedges += s.Hedges
	agg.Complete = agg.Complete && s.Complete
	agg.DroppedSubqueries += s.DroppedSubqueries
	agg.UncoveredRegions += s.UncoveredRegions
}

// search issues one query from a random node and runs the simulation
// until the merged result arrives.
func (ix *Index[T]) search(q T, r float64, opts core.QueryOpts) ([]Match[T], SearchStats, *QueryTrace, error) {
	var result *core.QueryResult
	err := ix.p.rt.Await(opTimeout, func(finish func()) error {
		center := ix.mapCenter(q)
		return ix.p.sys.RangeQuery(ix.name, ix.p.randomNode(), q, center, r, opts,
			func(qr *core.QueryResult) { result = qr; finish() })
	})
	if err != nil {
		return nil, SearchStats{}, nil, err
	}
	matches := make([]Match[T], len(result.Results))
	for i, res := range result.Results {
		matches[i] = Match[T]{ID: int(res.Obj), Object: ix.objects[res.Obj], Distance: res.Dist}
	}
	return matches, searchStats(result), result.Trace, nil
}
