package core

import (
	"testing"
	"time"
)

// probeNeighbors must respect the probing level: level 1 sees only the
// node's own routing table, higher levels see neighbors-of-neighbors.
func TestProbeLevelsWiden(t *testing.T) {
	f := buildFixture(t, 64, 1000, 2, false)
	lb1 := &lbController{sys: f.sys, cfg: LBConfig{ProbeLevel: 1}}
	lb2 := &lbController{sys: f.sys, cfg: LBConfig{ProbeLevel: 2}}
	lb4 := &lbController{sys: f.sys, cfg: LBConfig{ProbeLevel: 4}}
	in := f.sys.Nodes()[0]
	n1 := len(lb1.probeNeighbors(in))
	n2 := len(lb2.probeNeighbors(in))
	n4 := len(lb4.probeNeighbors(in))
	if n1 == 0 {
		t.Fatal("level-1 probe found nothing")
	}
	if n2 < n1 || n4 < n2 {
		t.Fatalf("probe sets shrank with level: %d, %d, %d", n1, n2, n4)
	}
	// Level 4 over a 64-node network reaches essentially everyone.
	if n4 < 40 {
		t.Fatalf("level-4 probe saw only %d of 63 neighbors", n4)
	}
	// The probing node never appears in its own probe set.
	for id := range lb4.probeNeighbors(in) {
		if id == in.ID() {
			t.Fatal("self in probe set")
		}
	}
}

// Probing must charge maintenance traffic (the paper piggybacks load
// info on maintenance messages; the cost still exists).
func TestProbeChargesTraffic(t *testing.T) {
	f := buildFixture(t, 32, 500, 2, false)
	before := f.sys.net.Traffic()
	lb := &lbController{sys: f.sys, cfg: LBConfig{ProbeLevel: 2}}
	lb.probeNeighbors(f.sys.Nodes()[0])
	after := f.sys.net.Traffic()
	if after.Bytes[0] <= before.Bytes[0] { // KindMaintenance == 0
		t.Fatal("probe did not charge maintenance traffic")
	}
}

// A perfectly balanced system must not migrate.
func TestNoMigrationWhenBalanced(t *testing.T) {
	f := buildFixture(t, 16, 100, 2, false)
	// Rebuild stores so every node holds exactly the same count.
	for _, in := range f.sys.Nodes() {
		in.st = NewMemStore()
	}
	for i, in := range f.sys.Nodes() {
		pred, _ := in.node.Predecessor()
		for j := 0; j < 10; j++ {
			if err := in.st.Put("test-l2", pred+1+uint64(j), Entry{Obj: ObjectID(i*10 + j), Point: []float64{0, 0}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0.1, ProbeLevel: 4, Period: time.Second}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + time.Minute)
	m, _ := f.sys.LBStats()
	f.sys.DisableLoadBalancing()
	if m != 0 {
		t.Fatalf("%d migrations on a perfectly balanced system", m)
	}
	if f.sys.net.Size() != 16 {
		t.Fatalf("network size changed: %d", f.sys.net.Size())
	}
}

// The migration threshold honors δ: with a huge δ nothing migrates
// even on skewed data.
func TestHugeDeltaSuppressesMigration(t *testing.T) {
	f := buildFixture(t, 24, 2000, 2, false)
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 1e9, ProbeLevel: 4, Period: time.Second}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + 30*time.Second)
	m, _ := f.sys.LBStats()
	f.sys.DisableLoadBalancing()
	if m != 0 {
		t.Fatalf("%d migrations despite δ=1e9", m)
	}
}

// MinLoad suppresses migrations from nearly empty nodes.
func TestMinLoadSuppressesTinyMigrations(t *testing.T) {
	f := buildFixture(t, 24, 100, 2, false) // ~4 entries per node
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 4, Period: time.Second, MinLoad: 1000}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + 30*time.Second)
	m, _ := f.sys.LBStats()
	f.sys.DisableLoadBalancing()
	if m != 0 {
		t.Fatalf("%d migrations despite MinLoad=1000", m)
	}
}

// Migration counters distinguish completed from aborted (single-key)
// migrations.
func TestSingleKeyMigrationAborts(t *testing.T) {
	f := buildFixture(t, 16, 100, 2, false)
	// Pile a single-key hotspot onto one node.
	in := f.sys.Nodes()[3]
	key := in.ID() // a key this node owns
	for j := 0; j < 5000; j++ {
		if err := in.st.Put("test-l2", key, Entry{Obj: ObjectID(100000 + j), Point: []float64{0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 4, Period: time.Second}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + 30*time.Second)
	_, aborted := f.sys.LBStats()
	f.sys.DisableLoadBalancing()
	if aborted == 0 {
		t.Fatal("single-key hotspot never aborted a migration (§4.3 behavior missing)")
	}
	// The hotspot is still there — it cannot be split.
	if in.Load() < 5000 {
		t.Fatalf("single-key hotspot was split: load = %d", in.Load())
	}
}
