package harness

import (
	"math/rand"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/core"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
)

// FaultCell is one fault-injection configuration's outcome (ablation
// A9): injected message loss (and optionally crash/rejoin cycles over a
// replicated index), with the reliability layer off or on.
type FaultCell struct {
	// Loss is the per-message drop probability.
	Loss float64
	// Retry reports whether the ack/timeout/retry layer was enabled.
	Retry bool
	// Crashes counts injected crash/rejoin cycles (these rows run with
	// 3-way replication so replicas can answer for crashed primaries).
	Crashes int
	Cell    Cell
}

// AblationFaults measures the index under injected message loss: each
// loss rate runs twice, fire-and-forget versus the reliable-delivery
// layer (MaxRetries 3). Two final rows add crash/rejoin cycles over a
// 3-way-replicated index at 10% loss, exercising successor failover and
// replica repair.
func AblationFaults(scale Scale, losses []float64) ([]FaultCell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	sc := Scheme{KMeans, 10}
	lms, _, err := SelectLandmarks(sc, w.Data, scale.LandmarkSample, metric.L2,
		landmark.DenseMean, scale.Seed+int64(sc.K)*101+int64(len(sc.Method)))
	if err != nil {
		return nil, err
	}
	type rowSpec struct {
		loss    float64
		retry   bool
		crashes int
	}
	var rows []rowSpec
	for _, l := range losses {
		rows = append(rows, rowSpec{l, false, 0}, rowSpec{l, true, 0})
	}
	const crashLoss = 0.10
	rows = append(rows, rowSpec{crashLoss, false, 8}, rowSpec{crashLoss, true, 8})
	out := make([]FaultCell, len(rows))
	err = parallelMap(len(rows), func(i int) error {
		row := rows[i]
		var retry core.RetryConfig
		if row.retry {
			retry = core.RetryConfig{MaxRetries: 3}
		}
		dep, err := Deploy(DeploySpec[metric.Vector]{
			Scale:     scale,
			Space:     w.Space,
			Data:      w.Data,
			Queries:   w.Queries,
			Truth:     w.Truth,
			Landmarks: lms,
			Rotate:    true,
			LossRate:  row.loss,
			Retry:     retry,
		})
		if err != nil {
			return err
		}
		fc := FaultCell{Loss: row.loss, Retry: row.retry}
		if row.crashes > 0 {
			if err := dep.Sys.ReplicateAll(dep.IndexName, 3); err != nil {
				return err
			}
			scheduleCrashes(dep, row.crashes, &fc)
		}
		cell, err := dep.RunWorkload(sc.Name(), 0.05, false)
		if err != nil {
			return err
		}
		fc.Cell = cell
		out[i] = fc
		return nil
	})
	return out, err
}

// scheduleCrashes injects n crash/rejoin cycles spread evenly across
// the workload window: a random live node crashes (System.CrashNode
// repairs routing state and replica placements), and a replacement with
// a fresh identifier joins on the same host a second later.
func scheduleCrashes(dep *Deployment[metric.Vector], n int, fc *FaultCell) {
	rng := rand.New(rand.NewSource(dep.scale.Seed + 555))
	span := time.Duration(dep.scale.Queries) * dep.scale.Interarrival
	for i := 0; i < n; i++ {
		at := dep.Eng.Now() + span*time.Duration(i+1)/time.Duration(n+1)
		dep.Eng.ScheduleAt(at, func() {
			nodes := dep.Sys.Nodes()
			if len(nodes) < 8 {
				return
			}
			victim := nodes[rng.Intn(len(nodes))]
			host := victim.ChordNode().Host()
			if err := dep.Sys.CrashNode(victim.ID()); err != nil {
				return
			}
			fc.Crashes++
			dep.Eng.Schedule(time.Second, func() {
				id := chord.ID(rng.Uint64())
				for dep.Sys.Network().Node(id) != nil {
					id = chord.ID(rng.Uint64())
				}
				_, _ = dep.Sys.JoinNode(id, host)
			})
		})
	}
}
