// Package core implements the paper's primary contribution: the
// distributed landmark-based index layer on top of Chord. It wires
// together the locality-preserving hash (internal/lph), the query
// geometry (internal/query) and the overlay (internal/chord) into a
// system of index nodes that
//
//   - store index entries for one or more index schemes (§3.2),
//   - resolve range queries with the embedded-tree routing algorithms
//     QueryRouting / QuerySplit / SurrogateRefine (§3.3, Algorithms
//     3–5), and
//   - balance load with space-mapping rotation and dynamic load
//     migration (§3.4).
package core

import (
	"fmt"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// ObjectID references a data object in the application's object store.
// The index layer never inspects objects; exact distances are obtained
// through the Index's Dist callback.
type ObjectID int32

// Entry is one index entry: the object and its index-space point (the
// vector of distances to the landmarks).
type Entry struct {
	Obj   ObjectID
	Point []float64
}

// Index describes one index scheme deployed on the platform. Multiple
// Index values with distinct names can share a single overlay — the
// architecture's headline feature.
type Index struct {
	// Name identifies the scheme (and determines its rotation offset
	// if its partitioner was built with rotation).
	Name string
	// Part is the locality-preserving hash over this scheme's index
	// space, including the rotation offset.
	Part *lph.Partitioner
	// Dist returns the true metric distance between a query payload
	// and a stored object, for the exact refinement step. It must be
	// safe to call from any node.
	Dist func(payload any, obj ObjectID) float64
	// Refine is Dist over a batch, for the exact refinement of a scan's
	// candidates: for each i < len(objs), at most 64, it writes to
	// dist[i] the distance from payload to object objs[i], bit for bit
	// what Dist returns, and sets bit i of its result when dist[i] <= r
	// (an ordered compare: a NaN distance is no hit). Ids travel as
	// int32 so that a refiner can hand them to metric.L2Rows as slab
	// positions (metric.L2Slab). When nil, DeployIndex gives the index a
	// loop over Dist.
	Refine func(payload any, objs []int32, r float64, dist []float64) uint64
	// MaxDist bounds distances for wire encoding (required when the
	// system runs with Config.EncodeWire; result distances are
	// quantized against it).
	MaxDist float64
}

func (ix *Index) validate() error {
	if ix == nil {
		return fmt.Errorf("core: nil index")
	}
	if ix.Name == "" {
		return fmt.Errorf("core: index with empty name")
	}
	if ix.Part == nil {
		return fmt.Errorf("core: index %q has no partitioner", ix.Name)
	}
	if ix.Dist == nil {
		return fmt.Errorf("core: index %q has no distance callback", ix.Name)
	}
	return nil
}

// distRefiner is Index.Refine for an index deployed with Dist alone:
// one Dist call per object.
func distRefiner(dist func(payload any, obj ObjectID) float64) func(any, []int32, float64, []float64) uint64 {
	return func(payload any, objs []int32, r float64, out []float64) uint64 {
		var hits uint64
		for i, obj := range objs {
			if out[i] = dist(payload, ObjectID(obj)); out[i] <= r {
				hits |= 1 << i
			}
		}
		return hits
	}
}

// Result is one query answer: an object and its exact distance to the
// query point.
type Result struct {
	Obj  ObjectID
	Dist float64
}

// QueryStats aggregates the paper's §4.1 cost metrics for one query.
type QueryStats struct {
	// Hops is the maximum path length required to deliver the query
	// to all of the corresponding index nodes.
	Hops int
	// Issued is when the query entered the system.
	Issued time.Duration
	// FirstResult is when the first result message arrived (response
	// time = FirstResult - Issued).
	FirstResult time.Duration
	// LastResult is when the final result message arrived (maximum
	// latency = LastResult - Issued).
	LastResult time.Duration
	// QueryMsgs / QueryBytes cover query-delivery traffic.
	QueryMsgs  int
	QueryBytes int64
	// ResultMsgs / ResultBytes cover result-delivery traffic.
	ResultMsgs  int
	ResultBytes int64
	// IndexNodes is the number of distinct nodes that answered.
	IndexNodes int
	// Candidates is the number of index entries that matched the
	// query cube before exact refinement.
	Candidates int
	// Retries is the number of retransmissions the reliability layer
	// issued for this query's subquery and result messages.
	Retries int
	// Hedges is the number of hedged duplicate subqueries the
	// resilience layer shipped for this query (Config.Hedge).
	Hedges int
}

// ResponseTime returns FirstResult - Issued.
func (qs *QueryStats) ResponseTime() time.Duration { return qs.FirstResult - qs.Issued }

// MaxLatency returns LastResult - Issued.
func (qs *QueryStats) MaxLatency() time.Duration { return qs.LastResult - qs.Issued }

// QueryResult is the completed answer to a range query.
type QueryResult struct {
	// Results are deduplicated and sorted by ascending distance. For
	// top-k queries the list is truncated to k.
	Results []Result
	Stats   QueryStats
	// Trace is the execution record when QueryOpts.Trace was set.
	Trace *Trace
	// Complete reports whether every region of the query's index space
	// was answered: no subquery was dropped and no deadline expired
	// with work outstanding. A complete result is exact; an incomplete
	// one is a subset of the exact answer, with the missing index-space
	// regions listed in Uncovered.
	Complete bool
	// DroppedSubqueries counts this query's subqueries lost to churn,
	// message loss, the hop guard, or exhausted retries.
	DroppedSubqueries int
	// Uncovered lists the index-space regions that were never answered
	// (dropped, or still outstanding when the deadline expired). A
	// caller can re-issue exactly these regions instead of the whole
	// query. Empty iff Complete.
	Uncovered []query.Region
}

// TransferEntryBytes is the size charged for one index entry moved
// between nodes: a publication, or an entry a migration reindexes. The
// query and result messages are charged their §4.1 sizes,
// wire.QuerySize and wire.ResultSize.
const TransferEntryBytes = 14
