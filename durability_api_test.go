package landmarkdht

import (
	"os"
	"testing"
)

// A platform with DataDir journals every node's region to disk: the
// stats must show durable nodes, and searches must behave exactly as
// on the in-memory default.
func TestDurablePlatformSearchAndStats(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Options{Nodes: 24, Seed: 1, DataDir: dir, DataSync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Close releases the 24 journals now: left to the files' finalizers,
	// they would close whenever a GC ran, in the middle of whatever test
	// counts descriptors next (TestCloseReleasesJournals).
	defer p.Close()
	data := testData(500, 8, 2)
	ix, err := AddIndex(p, EuclideanSpace("vecs", 8, -100, 200), data, DenseMean,
		IndexOptions{Landmarks: 3, SampleSize: 200})
	if err != nil {
		t.Fatal(err)
	}

	// Same platform without DataDir: results must match exactly.
	p2, err := New(Options{Nodes: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	ix2, err := AddIndex(p2, EuclideanSpace("vecs", 8, -100, 200), data, DenseMean,
		IndexOptions{Landmarks: 3, SampleSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		q := data[trial*17]
		got, _, err := ix.RangeSearch(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ix2.RangeSearch(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("durable platform diverged: %d results vs %d", len(got), len(want))
		}
	}

	ds := p.Durability()
	if ds.DurableNodes != 24 {
		t.Fatalf("DurableNodes = %d, want 24", ds.DurableNodes)
	}
	if ds.LogBytes == 0 {
		t.Fatal("no journal bytes after indexing 500 objects")
	}
	if p2.Durability().DurableNodes != 0 {
		t.Fatal("in-memory platform reports durable nodes")
	}
}

// TestCloseReleasesJournals: a durable platform holds one journal file
// per node, and Close syncs and closes every one of them — it leaves as
// many open descriptors behind as there were before New. It counts them
// in /proc/self/fd, so it runs where that exists (Linux).
func TestCloseReleasesJournals(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no descriptor table to count: %v", err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	openFDs() // the first directory read may set up the runtime's poller
	before := openFDs()
	p, err := New(Options{Nodes: 24, Seed: 1, DataDir: dir, DataSync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddIndex(p, EuclideanSpace("vecs", 8, -100, 200), testData(300, 8, 2), DenseMean,
		IndexOptions{Landmarks: 3, SampleSize: 100}); err != nil {
		t.Fatal(err)
	}
	if open := openFDs(); open < before+24 {
		t.Fatalf("%d descriptors open with 24 durable nodes, %d before New", open, before)
	}
	p.Close()
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open after Close, %d before New", after, before)
	}
	if n := p.sys.StoreErrors; n != 0 {
		t.Fatalf("closing the stores failed %d times", n)
	}
}
