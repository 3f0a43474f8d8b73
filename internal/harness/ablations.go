package harness

import (
	"math/rand"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/core"
	"landmarkdht/internal/eval"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// RotationResult compares multi-index hotspot overlap with and without
// the §3.4 space-mapping rotation. CombinedMax is the heaviest
// combined (all-schemes) load on any single node; without rotation the
// schemes' hotspots coincide and pile onto the same nodes.
type RotationResult struct {
	Rotated      bool
	NumIndexes   int
	CombinedMax  int
	CombinedGini float64
	// SameHottest reports whether every index scheme's hottest node is
	// the same physical node.
	SameHottest bool
}

// AblationRotation deploys several identically distributed index
// schemes on one overlay, once without rotation and once with, and
// reports the combined load concentration (DESIGN.md ablation A1).
func AblationRotation(scale Scale, numIndexes int) ([]RotationResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	if numIndexes <= 0 {
		numIndexes = 3
	}
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	// Every scheme indexes the same vectors under L2: one slab serves
	// them all.
	slab := metric.NewL2Slab(w.Space, w.Data)
	var out []RotationResult
	for _, rotate := range []bool{false, true} {
		eng := sim.NewEngine(scale.Seed)
		model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: scale.Nodes, Seed: scale.Seed})
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(simrt.New(eng), model, core.DefaultConfig())
		if _, err := sys.Populate(scale.Nodes, rand.New(rand.NewSource(scale.Seed+7))); err != nil {
			return nil, err
		}

		names := make([]string, numIndexes)
		for idx := 0; idx < numIndexes; idx++ {
			space := w.Space
			space.Name = space.Name + string(rune('a'+idx))
			names[idx] = space.Name
			lms, _, err := SelectLandmarks(Scheme{KMeans, 5}, w.Data, scale.LandmarkSample,
				metric.L2, landmark.DenseMean, scale.Seed+int64(idx))
			if err != nil {
				return nil, err
			}
			emb, err := indexspace.New(space, lms)
			if err != nil {
				return nil, err
			}
			part, err := emb.Partitioner(rotate)
			if err != nil {
				return nil, err
			}
			data := w.Data
			ix := &core.Index{
				Name: space.Name,
				Part: part,
				Dist: func(p any, o core.ObjectID) float64 {
					return metric.L2(p.(metric.Vector), data[o])
				},
			}
			if slab != nil {
				ix.Refine = slab.Refine
			}
			if err := sys.DeployIndex(ix); err != nil {
				return nil, err
			}
			rows, _ := emb.MapBatch(data, nil)
			if err := sys.BulkLoadRows(ix.Name, rows); err != nil {
				return nil, err
			}
		}
		loads := sys.Loads()
		res := RotationResult{
			Rotated:      rotate,
			NumIndexes:   numIndexes,
			CombinedMax:  loads[0],
			CombinedGini: eval.Gini(loads),
			SameHottest:  true,
		}
		var firstHot chord.ID
		for i, name := range names {
			var hot chord.ID
			best := -1
			for _, in := range sys.Nodes() {
				if l := in.LoadFor(name); l > best {
					hot, best = in.ID(), l
				}
			}
			if i == 0 {
				firstHot = hot
			} else if hot != firstHot {
				res.SameHottest = false
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationNaive compares the embedded-tree router against the §3.3
// naive per-node decomposition across range factors (ablation A2).
// Cells alternate: tree then naive per range factor.
func AblationNaive(scale Scale) ([]Cell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	sc := Scheme{KMeans, 10}
	rfs := RangeFactors()
	cells := make([]Cell, 2*len(rfs))
	err = parallelMap(2, func(mode int) error {
		dep, err := synDeploy(scale, w, sc, nil)
		if err != nil {
			return err
		}
		naive := mode == 1
		label := "tree"
		if naive {
			label = "naive"
		}
		for ri, rf := range rfs {
			cell, err := dep.RunWorkload(label, rf, naive)
			if err != nil {
				return err
			}
			cells[mode*len(rfs)+ri] = cell
		}
		return nil
	})
	return cells, err
}

// LBSweepCell is one (δ, P_l) configuration's outcome (ablation A3).
type LBSweepCell struct {
	Delta      float64
	ProbeLevel int
	Cell       Cell
}

// AblationLB sweeps the load-balancing knobs: the threshold factor δ
// and the probing level P_l control the tradeoff between balance
// quality and routing cost (§3.4).
func AblationLB(scale Scale) ([]LBSweepCell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	deltas := []float64{0, 0.5, 2}
	probes := []int{1, 2, 4}
	var specs []LBSweepCell
	for _, d := range deltas {
		for _, p := range probes {
			specs = append(specs, LBSweepCell{Delta: d, ProbeLevel: p})
		}
	}
	err = parallelMap(len(specs), func(i int) error {
		lb := core.LBConfig{Delta: specs[i].Delta, ProbeLevel: specs[i].ProbeLevel, Period: scale.LBPeriod}
		dep, err := synDeploy(scale, w, Scheme{KMeans, 10}, &lb)
		if err != nil {
			return err
		}
		cell, err := dep.RunWorkload("K-mean-10", 0.05, false)
		if err != nil {
			return err
		}
		specs[i].Cell = cell
		return nil
	})
	return specs, err
}

// AblationK sweeps the landmark count (§3.1 "number of landmarks"):
// too few landmarks filter poorly (large candidate sets), too many
// blow up the index-space dimensionality (ablation A4).
func AblationK(scale Scale) ([]Cell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	ks := []int{2, 5, 10, 15, 20}
	cells := make([]Cell, len(ks))
	err = parallelMap(len(ks), func(i int) error {
		dep, err := synDeploy(scale, w, Scheme{KMeans, ks[i]}, nil)
		if err != nil {
			return err
		}
		cell, err := dep.RunWorkload(Scheme{KMeans, ks[i]}.Name(), 0.02, false)
		if err != nil {
			return err
		}
		cells[i] = cell
		return nil
	})
	return cells, err
}

// AblationPNS compares lookup/query latency with and without proximity
// neighbor selection (ablation A5). Cells: PNS on, then off.
func AblationPNS(scale Scale) ([]Cell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 2)
	err = parallelMap(2, func(mode int) error {
		lms, _, err := SelectLandmarks(Scheme{KMeans, 10}, w.Data, scale.LandmarkSample,
			metric.L2, landmark.DenseMean, scale.Seed)
		if err != nil {
			return err
		}
		spec := DeploySpec[metric.Vector]{
			Scale:      scale,
			Space:      w.Space,
			Data:       w.Data,
			Queries:    w.Queries,
			Truth:      w.Truth,
			Landmarks:  lms,
			Rotate:     true,
			DisablePNS: mode == 1,
		}
		dep, err := Deploy(spec)
		if err != nil {
			return err
		}
		label := "PNS-on"
		if mode == 1 {
			label = "PNS-off"
		}
		cell, err := dep.RunWorkload(label, 0.02, false)
		if err != nil {
			return err
		}
		cells[mode] = cell
		return nil
	})
	return cells, err
}
