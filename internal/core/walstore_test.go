package core

import (
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wal"
)

func openTestWALStore(t *testing.T, dir string, compactEvery int) *WALStore {
	t.Helper()
	st, err := NewWALStore(WALStoreOptions{Dir: dir, Sync: wal.SyncNever, CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A restarted store must serve exactly what was written before the
// restart — the whole point of the WAL.
func TestWALStoreRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestWALStore(t, dir, -1)
	for i := 0; i < 100; i++ {
		if err := st.Put("idx-a", uint64(1000+i), Entry{Obj: ObjectID(i), Point: []float64{float64(i), -1.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("idx-b", 7, Entry{Obj: 900, Point: []float64{0.25}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete("idx-a", 1001, 1); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestWALStore(t, dir, -1)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := st2.Size("idx-a"); got != 99 {
		t.Fatalf("idx-a recovered %d entries, want 99", got)
	}
	if got := st2.Size("idx-b"); got != 1 {
		t.Fatalf("idx-b recovered %d entries, want 1", got)
	}
	keys, entries := viewCopy(st2, "idx-a")
	for i, k := range keys {
		if k == 1001 {
			t.Fatal("deleted entry came back")
		}
		if entries[i].Point[0] != float64(k-1000) || entries[i].Point[1] != -1.5 {
			t.Fatalf("entry %d corrupted: key %d point %v", i, k, entries[i].Point)
		}
	}
	rec := st2.Recovery()
	if rec.RecordsReplayed != 102 { // 101 puts + 1 delete
		t.Fatalf("RecordsReplayed = %d, want 102", rec.RecordsReplayed)
	}
	if rec.SnapshotRecords != 0 || rec.Compactions != 0 {
		t.Fatalf("unexpected snapshot state: %+v", rec)
	}
}

// Compaction must fold the journal into a snapshot, and recovery must
// combine snapshot + post-snapshot journal records.
func TestWALStoreCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	stamp := int64(0)
	st, err := NewWALStore(WALStoreOptions{
		Dir: dir, Sync: wal.SyncNever, CompactEvery: -1,
		Now: func() int64 { return stamp },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := st.Put("idx", uint64(i), Entry{Obj: ObjectID(i), Point: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	stamp = 12345
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.Recovery(); got.Compactions != 1 || got.SnapshotStamp != 12345 {
		t.Fatalf("post-compact stats: %+v", got)
	}
	// Post-snapshot tail.
	for i := 50; i < 60; i++ {
		if err := st.Put("idx", uint64(i), Entry{Obj: ObjectID(i), Point: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestWALStore(t, dir, -1)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := st2.Size("idx"); got != 60 {
		t.Fatalf("recovered %d entries, want 60", got)
	}
	rec := st2.Recovery()
	if rec.SnapshotRecords != 1 { // one region record for "idx"
		t.Fatalf("SnapshotRecords = %d, want 1", rec.SnapshotRecords)
	}
	if rec.SnapshotStamp != 12345 {
		t.Fatalf("SnapshotStamp = %d, want 12345", rec.SnapshotStamp)
	}
	if rec.RecordsReplayed != 10 {
		t.Fatalf("RecordsReplayed = %d, want 10", rec.RecordsReplayed)
	}
}

// Auto-compaction triggers on the configured journal interval, and
// every structural mutation (batch, region replace, extract, whole-ring
// extract, drop) survives a restart.
func TestWALStoreStructuralOpsSurvive(t *testing.T) {
	dir := t.TempDir()
	st := openTestWALStore(t, dir, 8)
	keys := []uint64{10, 11, 12, 13, 14, 15}
	entries := make([]Entry, len(keys))
	for i := range entries {
		entries[i] = Entry{Obj: ObjectID(i), Point: []float64{float64(i)}}
	}
	if err := st.PutBatch("batch", keys, entries); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyRegion("replace", keys[:3], entries[:3]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ExtractUpTo("batch", 10, 12); err != nil { // removes 10,11,12
		t.Fatal(err)
	}
	if _, _, err := st.ExtractUpTo("replace", 0, ^lph.Key(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch("doomed", keys, entries); err != nil {
		t.Fatal(err)
	}
	if err := st.DropIndex("doomed"); err != nil {
		t.Fatal(err)
	}
	// Push over the auto-compaction threshold.
	for i := 0; i < 10; i++ {
		if err := st.Put("tail", uint64(100+i), Entry{Obj: ObjectID(i), Point: []float64{2}}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Recovery().Compactions == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestWALStore(t, dir, -1)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := st2.Size("batch"); got != 3 {
		t.Fatalf("batch has %d entries after extract, want 3", got)
	}
	for _, gone := range []string{"replace", "doomed"} {
		if got := st2.Size(gone); got != 0 {
			t.Fatalf("%s has %d entries, want 0", gone, got)
		}
	}
	if got := st2.Size("tail"); got != 10 {
		t.Fatalf("tail has %d entries, want 10", got)
	}
	// Scan still works through the recovered image.
	got := st2.ScanIDs("tail", query.Region{Cube: []lph.Bounds{{Lo: 2, Hi: 2}}}, nil)
	if len(got) != 10 {
		t.Fatalf("scan found %d entries, want 10", len(got))
	}
}

// A whole System over the walstore factory behaves identically to the
// in-memory default, and a store reopened on the same directory
// recovers the node's region.
func TestWALStoreFactorySystemRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Store = WALStoreFactory(dir, WALStoreOptions{Sync: wal.SyncNever, CompactEvery: -1})
	f := buildFixtureCfg(t, 12, 600, 2, false, cfg)
	// Every node's region is on disk: reopen each node's directory
	// standalone and compare against the live store.
	for _, in := range f.sys.Nodes() {
		live := map[string]int{}
		for _, name := range in.st.Indexes() {
			live[name] = in.st.Size(name)
		}
		ws, ok := in.st.(*WALStore)
		if !ok {
			t.Fatal("factory did not build WALStores")
		}
		if err := ws.Compact(); err != nil { // also exercises snapshot path
			t.Fatal(err)
		}
		re, err := NewWALStore(WALStoreOptions{Dir: NodeDataDir(dir, in.ID()), Sync: wal.SyncNever, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range live {
			if got := re.Size(name); got != n {
				t.Fatalf("node %#x index %s: recovered %d entries, want %d", in.ID(), name, got, n)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
