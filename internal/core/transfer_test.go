package core

import (
	"fmt"
	"testing"
	"time"

	"landmarkdht/internal/runtime"
)

// xferFixtureEntries builds n synthetic entries whose ring keys fall
// just above base (dense, strictly increasing).
func xferEntries(base uint64, n int) ([]uint64, []Entry) {
	keys := make([]uint64, n)
	entries := make([]Entry, n)
	for i := 0; i < n; i++ {
		keys[i] = base + 1 + uint64(i)
		entries[i] = Entry{Obj: ObjectID(i), Point: []float64{float64(i), 0.5, -3.25}}
	}
	return keys, entries
}

// A stream must deliver every entry to the destination and cost
// strictly fewer messages and bytes than point-wise republication.
func TestStreamRegionDelivers(t *testing.T) {
	f := buildFixture(t, 8, 50, 2, false)
	nodes := f.sys.Nodes()
	src, dst := nodes[0], nodes[1]
	pred, ok := dst.node.Predecessor()
	if !ok {
		t.Fatal("unstabilized ring")
	}
	keys, entries := xferEntries(pred, 2000)
	done := false
	f.sys.streamRegion(src, dst.ID(), "xfer-test", keys, entries, func() { done = true })
	f.eng.Run()
	if !done {
		t.Fatal("stream never completed")
	}
	if got := dst.st.Size("xfer-test"); got != 2000 {
		t.Fatalf("destination holds %d entries, want 2000", got)
	}
	ts := f.sys.TransferStats()
	if ts.Transfers != 1 || ts.Chunks < 2 {
		t.Fatalf("stats: %+v", ts)
	}
	if ts.Retransmits != 0 || ts.FallbackEntries != 0 {
		t.Fatalf("lossless stream retransmitted or fell back: %+v", ts)
	}
	if ts.BulkMessages != 2*ts.Chunks {
		t.Fatalf("messages %d, want chunk+ack per chunk (%d)", ts.BulkMessages, 2*ts.Chunks)
	}
	if ts.PointwiseMessages != 2*2000 {
		t.Fatalf("counterfactual messages %d, want %d", ts.PointwiseMessages, 2*2000)
	}
	if ts.BulkMessages >= ts.PointwiseMessages {
		t.Fatalf("bulk messages %d not strictly below point-wise %d", ts.BulkMessages, ts.PointwiseMessages)
	}
	if ts.BulkBytes >= ts.PointwiseBytes {
		t.Fatalf("bulk bytes %d not strictly below point-wise %d", ts.BulkBytes, ts.PointwiseBytes)
	}
}

// With the real wire codec enabled, streamed entries round-trip
// bit-for-bit — points are exact float64, never quantized.
func TestStreamRegionEncodeWireExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EncodeWire = true
	f := buildFixtureCfg(t, 8, 50, 2, false, cfg)
	nodes := f.sys.Nodes()
	src, dst := nodes[2], nodes[3]
	pred, ok := dst.node.Predecessor()
	if !ok {
		t.Fatal("unstabilized ring")
	}
	keys, entries := xferEntries(pred, 300)
	entries[7].Point = []float64{1e-308, -0.0, 3.141592653589793}
	f.sys.streamRegion(src, dst.ID(), "xfer-wire", keys, entries, nil)
	f.eng.Run()
	gotK, gotE := viewCopy(dst.st, "xfer-wire")
	if len(gotK) != len(keys) {
		t.Fatalf("destination holds %d entries, want %d", len(gotK), len(keys))
	}
	byKey := map[uint64]Entry{}
	for i, k := range gotK {
		byKey[k] = gotE[i]
	}
	for i, k := range keys {
		g, ok := byKey[k]
		if !ok {
			t.Fatalf("key %#x missing", k)
		}
		if g.Obj != entries[i].Obj || len(g.Point) != len(entries[i].Point) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, g, entries[i])
		}
		for j := range g.Point {
			if g.Point[j] != entries[i].Point[j] {
				t.Fatalf("entry %d point[%d] = %v, want %v", i, j, g.Point[j], entries[i].Point[j])
			}
		}
	}
}

// A destination that crashes before the stream lands must not lose
// entries: retransmissions retarget the successor now covering its
// ring position.
func TestStreamRegionReceiverCrash(t *testing.T) {
	f := buildFixture(t, 8, 50, 2, false)
	nodes := f.sys.Nodes()
	src, dst := nodes[4], nodes[5]
	pred, ok := dst.node.Predecessor()
	if !ok {
		t.Fatal("unstabilized ring")
	}
	keys, entries := xferEntries(pred, 500)
	done := false
	f.sys.streamRegion(src, dst.ID(), "xfer-crash", keys, entries, func() { done = true })
	// Kill the destination before any chunk can land.
	if err := f.sys.net.CrashNode(dst.ID()); err != nil {
		t.Fatal(err)
	}
	f.sys.ForgetNode(dst.ID())
	f.sys.net.FixAround(dst.ID())
	f.eng.RunUntil(f.eng.Now() + time.Minute)
	if !done {
		t.Fatal("stream never completed after receiver crash")
	}
	// Every entry must live in some store: applied at the node now
	// covering the dead receiver's range, or teleported by fallback
	// reinsertion (which also lands in a store).
	stored := 0
	for _, in := range f.sys.Nodes() {
		stored += in.st.Size("xfer-crash")
	}
	if stored != 500 {
		t.Fatalf("%d of 500 entries survive the receiver crash", stored)
	}
	ts := f.sys.TransferStats()
	if ts.Retransmits == 0 {
		t.Fatalf("expected retransmissions after receiver crash: %+v", ts)
	}
}

// A sender that dies mid-stream abandons the stream but teleports its
// unfinished entries to their owners — migration degrades, it does not
// lose data.
func TestStreamRegionSenderDeath(t *testing.T) {
	f := buildFixture(t, 8, 50, 2, false)
	nodes := f.sys.Nodes()
	src, dst := nodes[6], nodes[7]
	pred, ok := dst.node.Predecessor()
	if !ok {
		t.Fatal("unstabilized ring")
	}
	keys, entries := xferEntries(pred, 500)
	done := false
	f.sys.streamRegion(src, dst.ID(), "xfer-dead", keys, entries, func() { done = true })
	if err := f.sys.net.CrashNode(src.ID()); err != nil {
		t.Fatal(err)
	}
	f.sys.ForgetNode(src.ID())
	f.sys.net.FixAround(src.ID())
	f.eng.RunUntil(f.eng.Now() + time.Minute)
	if !done {
		t.Fatal("stream never settled after sender death")
	}
	stored := 0
	for _, in := range f.sys.Nodes() {
		stored += in.st.Size("xfer-dead")
	}
	if stored != 500 {
		t.Fatalf("%d of 500 entries survive the sender death", stored)
	}
}

// Load-balancing migrations go through the bulk path end to end: after
// a skewed run with migrations, the accounting must show streams that
// were strictly cheaper than point-wise republication.
func TestMigrationUsesBulkTransfer(t *testing.T) {
	f := buildFixture(t, 24, 3000, 2, false)
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 4, Period: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + 10*time.Minute)
	m, _ := f.sys.LBStats()
	f.sys.DisableLoadBalancing()
	f.eng.Run()
	if m == 0 {
		t.Skip("no migrations on this fixture")
	}
	ts := f.sys.TransferStats()
	if ts.Transfers == 0 {
		t.Fatalf("migrations ran (%d) but no bulk streams: %+v", m, ts)
	}
	if ts.BulkMessages >= ts.PointwiseMessages || ts.BulkBytes >= ts.PointwiseBytes {
		t.Fatalf("bulk not strictly cheaper: %+v", ts)
	}
	// Conservation: every entry still lives exactly once.
	if got := f.sys.TotalEntries(); got != 3000 {
		t.Fatalf("entries = %d, want 3000", got)
	}
}

// A chunk copy that lands late — the delayed original after its
// retransmission, or either after the stream has finished or given up —
// must find the chunk already taken: every entry is stored exactly once,
// and the finished stream leaves nothing pending behind it.
func TestLateChunkAppliedOnce(t *testing.T) {
	for _, tc := range []struct {
		prob  float64
		delay time.Duration
	}{{0.1, 3 * time.Second}, {0.3, 3 * time.Second}, {0.5, 3 * time.Second}, {0.3, 40 * time.Second}, {0.5, 40 * time.Second}, {1, 40 * time.Second}} {
		t.Run(fmt.Sprintf("spike=%v/%v", tc.prob, tc.delay), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Chord.Faults = &runtime.FaultPolicy{SpikeProb: tc.prob, SpikeDelay: tc.delay}
			f := buildFixtureCfg(t, 8, 50, 2, false, cfg)
			nodes := f.sys.Nodes()
			src, dst := nodes[0], nodes[1]
			pred, ok := dst.node.Predecessor()
			if !ok {
				t.Fatal("unstabilized ring")
			}
			keys, entries := xferEntries(pred, 2000)
			done := 0
			f.sys.streamRegion(src, dst.ID(), "xfer-late", keys, entries, func() { done++ })
			f.eng.Run()
			if done != 1 {
				t.Fatalf("stream finished %d times", done)
			}
			copies := make([]int, len(entries))
			for _, in := range f.sys.Nodes() {
				in.st.View("xfer-late", func(_ []uint64, es []Entry) {
					for _, e := range es {
						copies[e.Obj]++
					}
				})
			}
			for obj, n := range copies {
				if n != 1 {
					t.Fatalf("object %d stored %d times (%+v)", obj, n, f.sys.TransferStats())
				}
			}
			if n := f.eng.Pending(); n != 0 {
				t.Fatalf("%d events left after the stream", n)
			}
			ts := f.sys.TransferStats()
			t.Logf("%+v", ts)
			if ts.Retransmits == 0 {
				t.Fatal("no chunk was sent twice: nothing could land late")
			}
		})
	}
}
