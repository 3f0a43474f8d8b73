package netrt

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// heapAfterGC returns the live heap once a collection has freed what it
// can.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLargeColumnsLeaveTheHeap boots one node on each side of mapFloor:
// ring-scan's corpus (131 072 objects, 13 MiB of columns) grows the live
// heap by less than a quarter of its column bytes, and ring-selective's
// (8 192 objects, under 1 MiB) maps nothing and keeps its columns on
// the heap, which grows by at least half their bytes (the margin is
// for whatever else the process frees meanwhile).
func TestLargeColumnsLeaveTheHeap(t *testing.T) {
	for _, tc := range []struct {
		data   DataConfig
		mapped bool
	}{
		{ringScanData, true},
		{DataConfig{Metric: "euclid", Seed: 1, Objects: 8192, Dim: 8, Landmarks: 6}, false},
	} {
		cols := uint64(columnBytes(tc.data))
		if mapped := cols >= mapFloor; mapped != tc.mapped {
			t.Fatalf("%d objects: %d column bytes, mapped %v, want %v", tc.data.Objects, cols, mapped, tc.mapped)
		}
		maps, before := liveMappings.Load(), heapAfterGC()
		n, err := Start(Config{Listen: "127.0.0.1:0", Data: tc.data,
			GossipPeriod: time.Hour, HeartbeatPeriod: time.Hour, AntiEntropyPeriod: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		grew := int64(heapAfterGC()) - int64(before)
		newMaps := liveMappings.Load() - maps
		runtime.KeepAlive(n)
		n.Close()
		t.Logf("%d objects: %d column bytes, live heap +%d, %d mapping(s)", tc.data.Objects, cols, grew, newMaps)
		if tc.mapped {
			if newMaps != 1 || grew >= int64(cols/4) {
				t.Errorf("%d objects: live heap +%d bytes and %d new mappings, want under %d and 1", tc.data.Objects, grew, newMaps, cols/4)
			}
		} else if newMaps != 0 || grew < int64(cols/2) {
			t.Errorf("%d objects: live heap +%d bytes and %d new mappings, want at least %d and 0", tc.data.Objects, grew, newMaps, cols/2)
		}
	}
}

// TestCloseUnmapsOnce runs a ring whose members each map their columns,
// checks an answer read from them against brute force, and requires the
// count of live mappings back where it started once the ring is closed;
// closing a member again unmaps nothing more.
func TestCloseUnmapsOnce(t *testing.T) {
	data := DataConfig{Metric: "euclid", Seed: 4, Objects: 50000, Dim: 8, Landmarks: 6}
	if columnBytes(data) < mapFloor {
		t.Fatalf("%d column bytes stay on the heap", columnBytes(data))
	}
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	start := liveMappings.Load()
	nodes := startRing(t, 3, data)
	if got := liveMappings.Load() - start; got != 3 {
		t.Fatalf("a ring of 3 holds %d mappings", got)
	}
	q := ds.RandomQuery(rand.New(rand.NewSource(1)))
	want, err := ds.BruteForce(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := nodes[1].Query(q, 0.4, 5*time.Second)
	if err != nil || !out.Complete || len(want) == 0 || !sameIDs(out.Entries, want) {
		t.Fatalf("complete=%v err=%v: %d entries, brute force %d", out.Complete, err, len(out.Entries), len(want))
	}
	for _, n := range nodes {
		n.Close()
	}
	if got := liveMappings.Load(); got != start {
		t.Fatalf("%d mappings live after Close, %d before Start", got, start)
	}
	nodes[0].Close()
	if got := liveMappings.Load(); got != start {
		t.Fatalf("a second Close left %d mappings live, want %d", got, start)
	}
}
