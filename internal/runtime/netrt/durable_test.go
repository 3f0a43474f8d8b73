package netrt

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"landmarkdht/internal/wal"
)

// bootDurable is Start's boot path without the node: open the data
// directory, then build the corpus.
func bootDurable(t *testing.T, dir string, cfg DataConfig) (c corpus, recovered bool, replayed int) {
	t.Helper()
	st, recovered, replayed, _, err := openDurable(dir, cfg)
	if err != nil {
		t.Fatalf("%s: open %s: %v", cfg.Metric, dir, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = buildCorpus(cfg); err != nil {
		t.Fatal(err)
	}
	return c, recovered, replayed
}

// A second boot on the same directory must come up with the first
// boot's corpus bit-for-bit — same signature, keys, points — for both
// metrics, having read nothing but the meta record.
func TestDurableCorpusRoundTrip(t *testing.T) {
	for _, cfg := range []DataConfig{
		{Metric: "euclid", Seed: 11, Objects: 512, Dim: 3, Landmarks: 4},
		{Metric: "edit", Seed: 3, Objects: 256, Landmarks: 4},
	} {
		dir := t.TempDir()
		built, recovered, _ := bootDurable(t, dir, cfg)
		if recovered {
			t.Fatalf("%s: first boot on an empty dir claims recovery", cfg.Metric)
		}
		restored, recovered, replayed := bootDurable(t, dir, cfg)
		if !recovered {
			t.Fatalf("%s: second boot did not recover from disk", cfg.Metric)
		}
		// The meta record: the corpus itself is never written.
		if want := 1; replayed != want {
			t.Fatalf("%s: replayed %d records, want %d", cfg.Metric, replayed, want)
		}
		if built.Sig() != restored.Sig() {
			t.Fatalf("%s: signature changed across recovery", cfg.Metric)
		}
		if built.N() != restored.N() {
			t.Fatalf("%s: N %d -> %d", cfg.Metric, built.N(), restored.N())
		}
		for i := 0; i < built.N(); i++ {
			if built.Key(i) != restored.Key(i) {
				t.Fatalf("%s: entry %d key changed", cfg.Metric, i)
			}
			k := built.Part().K()
			bp, rp := built.Point(i, make([]float64, k)), restored.Point(i, make([]float64, k))
			if len(bp) != len(rp) {
				t.Fatalf("%s: entry %d point dim changed", cfg.Metric, i)
			}
			for j := range bp {
				if bp[j] != rp[j] {
					t.Fatalf("%s: entry %d point diverged", cfg.Metric, i)
				}
			}
			if !slices.Equal(built.Cols().rows(int(built.Cols().pos[i]), 1), restored.Cols().rows(int(restored.Cols().pos[i]), 1)) {
				t.Fatalf("%s: entry %d stored point diverged", cfg.Metric, i)
			}
		}
		// Exact refinement must see the same objects: distances from a
		// random query object agree everywhere.
		rng := rand.New(rand.NewSource(7))
		qobj := built.RandomQuery(rng)
		be, err := built.Query(qobj)
		if err != nil {
			t.Fatal(err)
		}
		re, err := restored.Query(qobj)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < built.N(); j++ {
			if be.At(j) != re.At(j) {
				t.Fatalf("%s: position %d distance diverged after recovery", cfg.Metric, j)
			}
		}
	}
}

// Pointing a node at a directory built for a different corpus must
// fail loudly, never silently rebuild.
func TestDurableConfigMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := testData()
	st, _, _, _, err := openDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 999
	if _, _, _, _, err := openDurable(dir, other); err == nil {
		t.Fatal("openDurable accepted a directory built for a different seed")
	}
}

// A node restarted on the same address with the same data directory
// must recover its corpus from the WAL (Recovered=true, visible over
// the client protocol too) and answer exactly again.
func TestDurableNodeRestartRecovers(t *testing.T) {
	data := testData()
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	nodes := make([]*Node, 3)
	for i := range nodes {
		cfg := testConfig(data)
		cfg.DataDir = dirs[i]
		if i > 0 {
			cfg.Join = []string{nodes[0].Addr()}
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		if n.Recovered() {
			t.Fatalf("node %d claims recovery on first boot", i)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	waitConverged(t, nodes, 3)

	victim := nodes[2]
	addr := victim.Addr()
	victim.Close()
	nodes[2] = nil

	cfg := testConfig(data, nodes[0].Addr())
	cfg.Listen = addr
	cfg.DataDir = dirs[2]
	restarted, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	nodes[2] = restarted
	if !restarted.Recovered() {
		t.Fatal("restarted node did not recover from its data dir")
	}
	if restarted.replayed == 0 {
		t.Fatal("recovery replayed zero records")
	}
	waitConverged(t, nodes, 3)

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Info(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.Replayed == 0 {
		t.Fatalf("client info does not report recovery: %+v", info)
	}

	// Post-recovery answers must converge back to Complete ∧ exact.
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	waitFor(t, 20*time.Second, func() bool {
		qobj := ds.RandomQuery(rng)
		r := 0.25 + 0.2*rng.Float64()
		out, err := nodes[0].Query(qobj, r, 5*time.Second)
		if err != nil || !out.Complete {
			return false
		}
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(out.Entries, want) {
			t.Fatalf("complete-but-wrong after durable recovery: got %d want %d", len(out.Entries), len(want))
		}
		return true
	})
}

// TestDurableLegacyDirectoryOpens boots a node on a directory in the
// layout earlier versions wrote: a snapshot of the meta record, the
// landmark objects (tag 2) and every corpus entry (tag 3), then the
// online mutations in the log. The snapshot's corpus records are read
// past, the mutations replay, and answers are exact.
func TestDurableLegacyDirectoryOpens(t *testing.T) {
	data := testData()
	c, err := buildCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := wal.OpenStore(dir, wal.Options{Sync: wal.SyncInterval}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An entry record is a publish record under tag 3: index, ring key,
	// point, encoded object.
	record := func(tag byte, id int32, obj []byte) []byte {
		key, point, _, err := c.MapObj(obj)
		if err != nil {
			t.Fatal(err)
		}
		rec := encodeMutation(&pubMsg{ID: id, Key: uint64(key), Obj: obj}, point)
		rec[0] = tag
		return rec
	}
	err = st.Compact(1, func(emit func([]byte) error) error {
		if err := emit(encodeMeta(data)); err != nil {
			return err
		}
		for j := 0; j < data.Landmarks; j++ {
			if err := emit(append([]byte{recLandmark}, objAt(c, j)...)); err != nil {
				return err
			}
		}
		for j, id := range c.Cols().ids {
			if err := emit(record(recEntry, id, objAt(c, j))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const kept, dropped, tomb = int32(10_000), int32(10_001), int32(7)
	keptObj := EncodeVectorQuery([]float64{0.21, 0.42, 0.63})
	droppedObj := EncodeVectorQuery([]float64{0.91, 0.13, 0.37})
	for _, rec := range [][]byte{
		record(recPublish, kept, keptObj),
		record(recPublish, dropped, droppedObj),
		encodeMutation(&pubMsg{ID: dropped, Delete: true}, nil),
		encodeMutation(&pubMsg{ID: tomb, Delete: true}, nil),
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(data)
	cfg.DataDir = dir
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("start on a legacy directory: %v", err)
	}
	defer n.Close()
	if want := 1 + data.Landmarks + data.Objects + 4; !n.Recovered() || n.replayed != want {
		t.Fatalf("recovered=%v replayed=%d, want true and %d", n.Recovered(), n.replayed, want)
	}
	if !hasID(completeQuery(t, n, keptObj, 0), kept) {
		t.Fatal("journaled publish not answered")
	}
	if hasID(completeQuery(t, n, droppedObj, 0), dropped) {
		t.Fatal("deleted publish resurrected")
	}
	// A query that covers the whole space: the boot corpus minus the
	// tombstone, plus the surviving publish.
	want, err := (&Dataset{c: c}).BruteForce(keptObj, 2)
	if err != nil {
		t.Fatal(err)
	}
	var exact []ResultEntry
	for _, e := range want {
		if e.Obj != tomb {
			exact = append(exact, e)
		}
	}
	exact = append(exact, ResultEntry{Obj: kept})
	if got := completeQuery(t, n, keptObj, 2); len(want) != data.Objects || !sameIDs(got, exact) {
		t.Fatalf("full-range answer has %d entries, want the %d of brute force minus the tombstone plus the publish",
			len(got), len(want))
	}

	// The same directory under another config is still refused.
	n.Close()
	cfg.Data.Seed++
	if n2, err := Start(cfg); err == nil {
		n2.Close()
		t.Fatal("legacy directory accepted under a different seed")
	}
}

// TestDurablePointLengthRefused: a journaled publish whose point has
// another number of coordinates than the index is refused at boot, as
// a directory that is not this corpus', rather than stored in a delta
// whose columns hold every point at the index's stride.
func TestDurablePointLengthRefused(t *testing.T) {
	data := testData()
	c, err := buildCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := wal.OpenStore(dir, wal.Options{Sync: wal.SyncInterval}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(1, func(emit func([]byte) error) error { return emit(encodeMeta(data)) }); err != nil {
		t.Fatal(err)
	}
	obj := EncodeVectorQuery([]float64{0.21, 0.42, 0.63})
	key, point, _, err := c.MapObj(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(encodeMutation(&pubMsg{ID: 10_000, Key: uint64(key), Obj: obj}, append(point, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(data)
	cfg.DataDir = dir
	n, err := Start(cfg)
	if err == nil {
		n.Close()
		t.Fatal("a journaled point one coordinate too long was accepted")
	}
	if !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("refused with %v, want the point's length named", err)
	}
}
