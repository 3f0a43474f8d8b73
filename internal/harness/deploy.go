package harness

import (
	"fmt"
	"math/rand"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/core"
	"landmarkdht/internal/eval"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// Deployment is one simulated system populated with one index scheme,
// ready to run query workloads.
type Deployment[T any] struct {
	Eng       *sim.Engine
	Sys       *core.System
	Emb       *indexspace.Embedding[T]
	IndexName string
	Data      []T
	Queries   []T
	// Truth[i] is the ground-truth top-10 for Queries[i].
	Truth [][]int32
	// MaxDist scales range factors into absolute query ranges.
	MaxDist float64
	nodeIDs []chord.ID
	rng     *rand.Rand
	scale   Scale
}

// DeploySpec bundles everything needed to stand up a deployment.
type DeploySpec[T any] struct {
	Scale     Scale
	Space     metric.Space[T]
	Data      []T
	Queries   []T
	Truth     [][]int32
	Landmarks []T
	// BoundarySample, when non-nil, derives the index-space boundary
	// from the sample (§3.1 approach 2) instead of the metric bound.
	BoundarySample []T
	// Rotate applies the per-index rotation offset.
	Rotate bool
	// LB, when non-nil, enables dynamic load migration.
	LB *core.LBConfig
	// MaxDist overrides the range-factor scale (default: Space.Max).
	MaxDist float64
	// DisablePNS turns off proximity neighbor selection.
	DisablePNS bool
	// LossRate drops each message with this probability (fault
	// injection; 0 disables).
	LossRate float64
	// Retry configures the reliable-delivery layer (zero value: the
	// paper's fire-and-forget behavior).
	Retry core.RetryConfig
}

// SelectLandmarks runs the configured selection scheme over a random
// sample of the dataset, mirroring §3.1's well-known-node procedure
// (landmark.Select). KMeans without a mean clusters by medoids.
func SelectLandmarks[T any](sc Scheme, data []T, sampleN int, d metric.Distance[T], mean landmark.Meaner[T], seed int64) ([]T, []T, error) {
	var method landmark.Method
	switch {
	case sc.Method == Greedy:
		method = landmark.MaxMin
	case sc.Method == KMeans && mean == nil:
		method = landmark.Medoids
	case sc.Method == KMeans:
		method = landmark.Centroids
	default:
		return nil, nil, fmt.Errorf("harness: unknown scheme method %q", sc.Method)
	}
	return landmark.Select(method, data, sampleN, sc.K, d, mean, seed)
}

// Deploy builds the simulated system: overlay, embedding, index, bulk
// load, optional load balancing.
func Deploy[T any](spec DeploySpec[T]) (*Deployment[T], error) {
	if err := spec.Scale.validate(); err != nil {
		return nil, err
	}
	if len(spec.Truth) != len(spec.Queries) {
		return nil, fmt.Errorf("harness: %d truth rows for %d queries", len(spec.Truth), len(spec.Queries))
	}
	eng := sim.NewEngine(spec.Scale.Seed)
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: spec.Scale.Nodes, Seed: spec.Scale.Seed})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	if spec.DisablePNS {
		cfg.Chord.PNS = false
	}
	if spec.LossRate > 0 {
		cfg.Chord.Faults = &runtime.FaultPolicy{Drop: spec.LossRate}
	}
	cfg.Retry = spec.Retry
	sys := core.NewSystem(simrt.New(eng), model, cfg)
	rng := rand.New(rand.NewSource(spec.Scale.Seed + 7))
	ids, err := sys.Populate(spec.Scale.Nodes, rng)
	if err != nil {
		return nil, err
	}

	var opts []indexspace.Option[T]
	if spec.BoundarySample != nil {
		opts = append(opts, indexspace.WithSampleBoundary(spec.BoundarySample))
	}
	emb, err := indexspace.New(spec.Space, spec.Landmarks, opts...)
	if err != nil {
		return nil, err
	}
	part, err := emb.Partitioner(spec.Rotate)
	if err != nil {
		return nil, err
	}
	data := spec.Data
	dist := spec.Space.Dist
	maxDistHint := spec.MaxDist
	if maxDistHint <= 0 && spec.Space.Bounded {
		maxDistHint = spec.Space.Max
	}
	ix := &core.Index{
		Name:    spec.Space.Name,
		Part:    part,
		MaxDist: maxDistHint,
		Dist: func(payload any, obj core.ObjectID) float64 {
			return dist(payload.(T), data[obj])
		},
	}
	if slab := metric.NewL2Slab(spec.Space, data); slab != nil {
		ix.Refine = slab.Refine
	}
	if err := sys.DeployIndex(ix); err != nil {
		return nil, err
	}
	// Batch-embed the whole dataset into one coordinate arena: two
	// allocations instead of one per object, and the per-object
	// embedding loop is the dominant cost of standing up a deployment.
	rows, _ := emb.MapBatch(data, nil)
	if err := sys.BulkLoadRows(ix.Name, rows); err != nil {
		return nil, err
	}
	if spec.LB != nil {
		lbCfg := *spec.LB
		if lbCfg.Period <= 0 {
			lbCfg.Period = spec.Scale.LBPeriod
		}
		if err := sys.EnableLoadBalancing(lbCfg); err != nil {
			return nil, err
		}
	}
	maxDist := spec.MaxDist
	if maxDist <= 0 {
		if spec.Space.Bounded {
			maxDist = spec.Space.Max
		} else {
			return nil, fmt.Errorf("harness: MaxDist required for unbounded metric")
		}
	}
	return &Deployment[T]{
		Eng:       eng,
		Sys:       sys,
		Emb:       emb,
		IndexName: spec.Space.Name,
		Data:      data,
		Queries:   spec.Queries,
		Truth:     spec.Truth,
		MaxDist:   maxDist,
		nodeIDs:   ids,
		rng:       rng,
		scale:     spec.Scale,
	}, nil
}

// RunWorkload issues the deployment's query set at Poisson arrivals on
// random live nodes with the given range factor and aggregates the
// paper's cost metrics. naive switches to the strawman router.
func (d *Deployment[T]) RunWorkload(schemeName string, rangeFactor float64, naive bool) (Cell, error) {
	r := rangeFactor * d.MaxDist
	type obs struct {
		recall   float64
		stats    core.QueryStats
		returned []int32
	}
	results := make([]*obs, len(d.Queries))
	completed := 0
	droppedBefore := d.Sys.DroppedSubqueries
	retriesBefore := d.Sys.RetriesIssued
	recoveredBefore := d.Sys.RecoveredSubqueries

	// Arrivals begin at the engine's current time so reused
	// deployments keep Poisson pacing across workloads.
	at := d.Eng.Now()
	var lastArrival sim.Time
	for qi := range d.Queries {
		qi := qi
		q := d.Queries[qi]
		at += time.Duration(d.rng.ExpFloat64() * float64(d.scale.Interarrival))
		lastArrival = at
		src := d.liveSourceAt()
		center := d.Emb.Map(q)
		d.Eng.ScheduleAt(at, func() {
			// The source must still be alive at issue time (migrations
			// rename nodes); re-pick if not.
			srcID := src
			if d.Sys.Node(srcID) == nil {
				srcID = d.liveSourceAt()
			}
			issue := func(done func(*core.QueryResult)) error {
				if naive {
					return d.Sys.NaiveRangeQuery(d.IndexName, srcID, q, center, r, core.QueryOpts{TopK: 10}, done)
				}
				return d.Sys.RangeQuery(d.IndexName, srcID, q, center, r, core.QueryOpts{TopK: 10}, done)
			}
			err := issue(func(qr *core.QueryResult) {
				got := make([]int32, len(qr.Results))
				for i, res := range qr.Results {
					got[i] = int32(res.Obj)
				}
				results[qi] = &obs{
					recall:   eval.Recall(d.Truth[qi], got),
					stats:    qr.Stats,
					returned: got,
				}
				completed++
			})
			if err != nil {
				// Record as a failed query with zero recall.
				results[qi] = &obs{}
				completed++
			}
		})
	}
	// Drain: run to the last arrival plus a generous settling window;
	// extend while queries are still in flight.
	deadline := lastArrival + 2*time.Minute
	d.Eng.RunUntil(deadline)
	for tries := 0; completed < len(d.Queries) && tries < 20; tries++ {
		deadline += time.Minute
		d.Eng.RunUntil(deadline)
	}
	if completed < len(d.Queries) {
		return Cell{}, fmt.Errorf("harness: %d of %d queries never completed", len(d.Queries)-completed, len(d.Queries))
	}

	cell := Cell{Scheme: schemeName, RangeFactor: rangeFactor}
	var recalls, hops, resp, maxlat, qmsgs, qbytes, rbytes, inodes, cands []float64
	for _, o := range results {
		recalls = append(recalls, o.recall)
		hops = append(hops, float64(o.stats.Hops))
		resp = append(resp, float64(o.stats.ResponseTime())/float64(time.Millisecond))
		maxlat = append(maxlat, float64(o.stats.MaxLatency())/float64(time.Millisecond))
		qmsgs = append(qmsgs, float64(o.stats.QueryMsgs))
		qbytes = append(qbytes, float64(o.stats.QueryBytes))
		rbytes = append(rbytes, float64(o.stats.ResultBytes))
		inodes = append(inodes, float64(o.stats.IndexNodes))
		cands = append(cands, float64(o.stats.Candidates))
	}
	cell.Recall = eval.Summarize(recalls).Mean
	cell.Hops = eval.Summarize(hops)
	cell.RespMs = eval.Summarize(resp)
	cell.MaxLatMs = eval.Summarize(maxlat)
	cell.QueryMsgs = eval.Summarize(qmsgs)
	cell.QueryBytes = eval.Summarize(qbytes)
	cell.ResultBytes = eval.Summarize(rbytes)
	cell.IndexNodes = eval.Summarize(inodes)
	cell.Candidates = eval.Summarize(cands)
	cell.Dropped = d.Sys.DroppedSubqueries - droppedBefore
	cell.Retries = d.Sys.RetriesIssued - retriesBefore
	cell.Recovered = d.Sys.RecoveredSubqueries - recoveredBefore
	cell.Migrations, cell.MigrationsAborted = d.Sys.LBStats()
	loads := d.Sys.Loads()
	if len(loads) > 0 {
		cell.MaxLoad = loads[0]
	}
	cell.LoadGini = eval.Gini(loads)
	return cell, nil
}

// liveSourceAt picks a random live node id.
func (d *Deployment[T]) liveSourceAt() chord.ID {
	return d.Sys.NodeAt(d.rng.Intn(d.Sys.Network().Size()))
}

// Loads returns the current sorted (descending) load distribution.
func (d *Deployment[T]) Loads() []int { return d.Sys.Loads() }

// SettleLB lets load balancing run for the given simulated time with
// no query traffic (used by the load-distribution figures).
func (d *Deployment[T]) SettleLB(duration time.Duration) {
	d.Eng.RunFor(duration)
}

// ExpandTruth aligns per-distinct ground truth with a repeated query
// list: queries are distinct[0..n) repeated round-robin.
func ExpandTruth(distinctTruth [][]int32, total int) [][]int32 {
	out := make([][]int32, total)
	n := len(distinctTruth)
	for i := 0; i < total; i++ {
		out[i] = distinctTruth[i%n]
	}
	return out
}

// RepeatQueries builds the full query list from distinct queries.
func RepeatQueries[T any](distinct []T, total int) []T {
	out := make([]T, total)
	for i := 0; i < total; i++ {
		out[i] = distinct[i%len(distinct)]
	}
	return out
}
