package core

import (
	"math/rand"
	"testing"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// regionTransfer10k builds the 8-node ring of the region-transfer
// benchmark and returns a function that streams one 10k-object region
// between two of its nodes, runs the engine dry and drops the copy.
func regionTransfer10k(tb testing.TB) (sys *System, transfer func()) {
	eng := sim.NewEngine(1)
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: 8, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sys = NewSystem(simrt.New(eng), model, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	used := map[chord.ID]bool{}
	for i := 0; i < 8; i++ {
		id := chord.ID(rng.Uint64())
		for used[id] {
			id = chord.ID(rng.Uint64())
		}
		used[id] = true
		if _, err := sys.AddNode(id, i); err != nil {
			tb.Fatal(err)
		}
	}
	sys.Stabilize()
	nodes := sys.Nodes()
	src, dst := nodes[0], nodes[1]
	pred, ok := dst.node.Predecessor()
	if !ok {
		tb.Fatal("unstabilized ring")
	}
	keys, entries := xferEntries(pred, 10000)
	return sys, func() {
		sys.streamRegion(src, dst.ID(), "bench-region", keys, entries, nil)
		eng.Run()
		if err := dst.st.DropIndex("bench-region"); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRegionTransfer10k streams a 10k-object region between two
// nodes and reports the measured bulk cost against the point-wise
// counterfactual (the numbers behind EXPERIMENTS.md's durability
// section).
func BenchmarkRegionTransfer10k(b *testing.B) {
	sys, transfer := regionTransfer10k(b)
	before := sys.TransferStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transfer()
	}
	b.StopTimer()
	ts := sys.TransferStats()
	iters := float64(b.N)
	bulkMsgs := float64(ts.BulkMessages-before.BulkMessages) / iters
	bulkBytes := float64(ts.BulkBytes-before.BulkBytes) / iters
	pwMsgs := float64(ts.PointwiseMessages-before.PointwiseMessages) / iters
	pwBytes := float64(ts.PointwiseBytes-before.PointwiseBytes) / iters
	b.ReportMetric(bulkMsgs, "bulk-msgs")
	b.ReportMetric(bulkBytes, "bulk-bytes")
	b.ReportMetric(pwMsgs, "pointwise-msgs")
	b.ReportMetric(pwBytes, "pointwise-bytes")
	if pwBytes > 0 {
		b.ReportMetric(1-bulkBytes/pwBytes, "bytes-saved-frac")
	}
}

// regionTransferAllocsCeiling bounds the heap allocations of one
// 10k-object region stream (measured 265): a few per chunk, nowhere
// near one per entry. The ceiling is the measurement plus 10 %.
const regionTransferAllocsCeiling = 291

// TestRegionTransferAllocsCeiling fails when streaming a region starts
// allocating per entry again (point-wise republication of the same
// region costs 20000 messages).
func TestRegionTransferAllocsCeiling(t *testing.T) {
	_, transfer := regionTransfer10k(t)
	allocs := testing.AllocsPerRun(5, transfer)
	t.Logf("%.0f allocs per 10k-object transfer (ceiling %d)", allocs, regionTransferAllocsCeiling)
	if allocs > regionTransferAllocsCeiling {
		t.Fatalf("%.0f allocs per 10k-object transfer, ceiling %d", allocs, regionTransferAllocsCeiling)
	}
}
