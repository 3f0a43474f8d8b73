package harness

import (
	"math/rand"
	"time"

	"landmarkdht/internal/chord"
)

// ChurnCell is one churn-rate configuration's outcome (ablation A6):
// node session time vs. query quality and cost in a network where
// nodes continuously crash and fresh nodes join.
type ChurnCell struct {
	// MeanSessionTime is the average node lifetime; lower = harsher.
	// Zero disables churn (the baseline row).
	MeanSessionTime time.Duration
	// Crashes and Joins count membership events during the workload.
	Crashes, Joins int
	// LostEntries counts index entries that died with their node and
	// were republished by their owner (the paper's soft-state model).
	LostEntries int
	Cell        Cell
}

// AblationChurn measures the index under continuous node churn: nodes
// crash with exponential lifetimes and rejoin with fresh identifiers,
// entries on crashed nodes are republished after a recovery delay
// (soft-state refresh), and the query workload runs throughout.
func AblationChurn(scale Scale) ([]ChurnCell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	sessions := []time.Duration{
		0, // baseline: no churn
		200 * scale.Interarrival,
		50 * scale.Interarrival,
		15 * scale.Interarrival,
	}
	out := make([]ChurnCell, len(sessions))
	err = parallelMap(len(sessions), func(i int) error {
		dep, err := synDeploy(scale, w, Scheme{KMeans, 10}, nil)
		if err != nil {
			return err
		}
		cc := ChurnCell{MeanSessionTime: sessions[i]}
		if sessions[i] > 0 {
			stopChurn := startChurn(dep, sessions[i], &cc)
			defer stopChurn()
		}
		cell, err := dep.RunWorkload("K-mean-10", 0.05, false)
		if err != nil {
			return err
		}
		cc.Cell = cell
		out[i] = cc
		return nil
	})
	return out, err
}

// startChurn schedules exponential crash/rejoin cycles across the
// deployment. Crashed nodes' entries are republished to the current
// owners after a recovery delay, modeling the soft-state refresh P2P
// indexes rely on. Returns a stop function.
func startChurn[T any](dep *Deployment[T], meanSession time.Duration, cc *ChurnCell) func() {
	sys := dep.Sys
	net := sys.Network()
	eng := dep.Eng
	rng := rand.New(rand.NewSource(dep.scale.Seed + 1234))
	stopped := false

	var scheduleCrash func()
	scheduleCrash = func() {
		delay := time.Duration(rng.ExpFloat64() * float64(meanSession) / float64(dep.scale.Nodes) * 4)
		eng.Schedule(delay, func() {
			if stopped {
				return
			}
			defer scheduleCrash()
			nodes := sys.Nodes()
			if len(nodes) < 8 {
				return
			}
			victim := nodes[rng.Intn(len(nodes))]
			// Capture the victim's entries for republication, in index
			// order: identical seeds must place entries in the same
			// store orders.
			lost := victim.Snapshot()
			for _, b := range lost {
				cc.LostEntries += len(b.Entries)
			}
			host := victim.ChordNode().Host()
			if err := sys.CrashNode(victim.ID()); err != nil {
				return
			}
			cc.Crashes++

			// A replacement node joins shortly after with a fresh id.
			eng.Schedule(time.Duration(rng.ExpFloat64()*float64(time.Second)), func() {
				if stopped {
					return
				}
				id := chord.ID(rng.Uint64())
				for net.Node(id) != nil {
					id = chord.ID(rng.Uint64())
				}
				if _, err := sys.JoinNode(id, host); err != nil {
					return
				}
				cc.Joins++
			})
			// The lost entries are republished by their owners after a
			// recovery delay (soft-state refresh period).
			eng.Schedule(5*time.Second, func() {
				if stopped {
					return
				}
				for _, b := range lost {
					_ = sys.BulkLoad(b.Index, b.Entries)
				}
			})
		})
	}
	scheduleCrash()
	return func() { stopped = true }
}
