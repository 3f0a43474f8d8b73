package harness

import (
	"fmt"
	"io"
	"sort"

	"landmarkdht/internal/eval"
	"landmarkdht/internal/hilbert"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
)

// MappingCell compares one space-filling-curve mapping of the landmark
// index space (ablation A7, motivated by the paper's §5 comparison
// with SCRAP's Hilbert mapping): how many nodes a range query's
// candidate set spreads over, and how contiguous the candidates' keys
// are.
type MappingCell struct {
	Mapping string // "kd-morton" (the paper's Algorithm 2 order) or "hilbert"
	K       int    // landmarks / dimensions
	// NodesTouched is the per-query distribution of distinct nodes
	// holding candidate objects.
	NodesTouched eval.Summary
	// KeyRuns is the per-query count of contiguous key intervals the
	// candidates occupy when node ranges are ~2^64/N wide (measured as
	// runs after bucketing keys by node ownership order).
	KeyRuns eval.Summary
	// Candidates is the per-query candidate-set size (identical across
	// mappings; a sanity column).
	Candidates eval.Summary
}

// AblationMapping quantizes the landmark index space onto a grid and
// keys it with (a) the k-d round-robin bisection order of Algorithm 2
// — which is exactly the Morton / Z-order curve — and (b) the Hilbert
// curve, then measures how range-query candidate sets spread across a
// simulated ring under each mapping. Fewer nodes touched / fewer key
// runs = better locality.
func AblationMapping(scale Scale) ([]MappingCell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	// Node placement models a perfectly load-balanced ring (what the
	// §3.4 migration converges to): each node owns an equal-count
	// contiguous key bucket. Built per mapping from that mapping's own
	// key distribution, so each curve is judged under its best
	// balanced assignment.
	makeOwner := func(keys []uint64) func(uint64) int {
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		bounds := make([]uint64, scale.Nodes)
		for b := 0; b < scale.Nodes; b++ {
			idx := (b + 1) * len(sorted) / scale.Nodes
			if idx >= len(sorted) {
				idx = len(sorted) - 1
			}
			bounds[b] = sorted[idx]
		}
		return func(key uint64) int {
			i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= key })
			if i == len(bounds) {
				i = len(bounds) - 1
			}
			return i
		}
	}

	var out []MappingCell
	for _, k := range []int{5, 10} {
		bits := 64 / k
		if bits > 12 {
			bits = 12
		}
		curve, err := hilbert.New(k, bits)
		if err != nil {
			return nil, err
		}
		lms, _, err := SelectLandmarks(Scheme{KMeans, k}, w.Data, scale.LandmarkSample,
			metric.L2, landmark.DenseMean, scale.Seed)
		if err != nil {
			return nil, err
		}
		// Embed and quantize every object once.
		maxDist := w.Space.Max
		grid := func(x metric.Vector) []uint32 {
			coords := make([]uint32, k)
			for j, l := range lms {
				f := metric.L2(x, l) / maxDist
				if f < 0 {
					f = 0
				}
				if f >= 1 {
					f = 1 - 1e-9
				}
				coords[j] = uint32(f * float64(uint32(1)<<uint(bits)))
			}
			return coords
		}
		points := make([][]uint32, len(w.Data))
		allM := make([]uint64, len(w.Data))
		allH := make([]uint64, len(w.Data))
		shift := uint(64 - k*bits)
		for i, x := range w.Data {
			points[i] = grid(x)
			mk, err := curve.MortonIndex(points[i])
			if err != nil {
				return nil, err
			}
			hk, err := curve.Index(points[i])
			if err != nil {
				return nil, err
			}
			allM[i] = mk << shift
			allH[i] = hk << shift
		}
		ownerM := makeOwner(allM)
		ownerH := makeOwner(allH)
		r := 0.05 * maxDist // representative 5% range factor
		cells := map[string]*MappingCell{
			"kd-morton": {Mapping: "kd-morton", K: k},
			"hilbert":   {Mapping: "hilbert", K: k},
		}
		var nodesM, nodesH, runsM, runsH, cands []float64
		distinct := w.Queries[:min(len(w.Queries), scale.DistinctQueries)]
		for _, q := range distinct {
			qg := grid(q)
			// Candidate set: objects whose quantized coordinates all
			// fall within the quantized range (a grid-level cube).
			rq := uint32(r / maxDist * float64(uint32(1)<<uint(bits)))
			if rq == 0 {
				rq = 1
			}
			var mKeys, hKeys []uint64
			for i, pg := range points {
				inside := true
				for j := range pg {
					lo := int64(qg[j]) - int64(rq)
					hi := int64(qg[j]) + int64(rq)
					if int64(pg[j]) < lo || int64(pg[j]) > hi {
						inside = false
						break
					}
				}
				if !inside {
					continue
				}
				mKeys = append(mKeys, allM[i])
				hKeys = append(hKeys, allH[i])
			}
			if len(mKeys) == 0 {
				continue
			}
			cands = append(cands, float64(len(mKeys)))
			nodesM = append(nodesM, float64(distinctOwners(mKeys, ownerM)))
			nodesH = append(nodesH, float64(distinctOwners(hKeys, ownerH)))
			runsM = append(runsM, float64(ownerRuns(mKeys, ownerM)))
			runsH = append(runsH, float64(ownerRuns(hKeys, ownerH)))
		}
		cells["kd-morton"].NodesTouched = eval.Summarize(nodesM)
		cells["kd-morton"].KeyRuns = eval.Summarize(runsM)
		cells["kd-morton"].Candidates = eval.Summarize(cands)
		cells["hilbert"].NodesTouched = eval.Summarize(nodesH)
		cells["hilbert"].KeyRuns = eval.Summarize(runsH)
		cells["hilbert"].Candidates = eval.Summarize(cands)
		out = append(out, *cells["kd-morton"], *cells["hilbert"])
	}
	return out, nil
}

// distinctOwners counts the nodes owning the keys.
func distinctOwners(keys []uint64, ownerOf func(uint64) int) int {
	seen := map[int]bool{}
	for _, k := range keys {
		seen[ownerOf(k)] = true
	}
	return len(seen)
}

// ownerRuns counts maximal runs of ring-consecutive owner nodes — a
// proxy for how many disjoint key intervals a range query must visit.
func ownerRuns(keys []uint64, ownerOf func(uint64) int) int {
	owners := map[int]bool{}
	for _, k := range keys {
		owners[ownerOf(k)] = true
	}
	ids := make([]int, 0, len(owners))
	for o := range owners {
		ids = append(ids, o)
	}
	sort.Ints(ids)
	runs := 0
	for i := range ids {
		if i == 0 || ids[i] != ids[i-1]+1 {
			runs++
		}
	}
	return runs
}

// printMapping renders ablation A7.
func printMapping(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-10s %4s %12s %12s %10s %12s\n",
		"mapping", "k", "nodes-mean", "nodes-max", "runs-mean", "candidates")
	for _, c := range r.Mapping {
		fmt.Fprintf(w, "%-10s %4d %12.1f %12.0f %10.1f %12.1f\n",
			c.Mapping, c.K, c.NodesTouched.Mean, c.NodesTouched.Max,
			c.KeyRuns.Mean, c.Candidates.Mean)
	}
}
