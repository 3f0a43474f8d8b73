package netrt

import (
	"math/rand"
	"testing"
	"time"
)

func hasID(ents []ResultEntry, id int32) bool {
	for _, e := range ents {
		if e.Obj == id {
			return true
		}
	}
	return false
}

// completeQuery runs one query and requires a Complete answer.
func completeQuery(t *testing.T, n *Node, qobj []byte, r float64) []ResultEntry {
	t.Helper()
	out, err := n.Query(qobj, r, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("query incomplete on a healthy ring (dropped %d)", out.Dropped)
	}
	return out.Entries
}

// TestPublishDeleteQueryable publishes an object through a node that is
// usually not its owner, checks it is found exactly at distance zero
// alongside the untouched boot corpus, then deletes it — and a boot
// entry — and checks both vanish from exact answers.
func TestPublishDeleteQueryable(t *testing.T) {
	data := testData()
	nodes := startReplicatedRing(t, 3, 1, data)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}

	obj := EncodeVectorQuery([]float64{0.31, 0.62, 0.47})
	const pubID = int32(10_000)
	if err := nodes[0].Publish(pubID, obj, 5*time.Second); err != nil {
		t.Fatalf("publish: %v", err)
	}
	// Publishing an id that collides with the boot corpus must refuse.
	if err := nodes[1].Publish(3, obj, 5*time.Second); err == nil {
		t.Fatal("publish accepted a boot-corpus id")
	}

	r := 0.15
	want, err := ds.BruteForce(obj, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		ents := completeQuery(t, n, obj, r)
		if !hasID(ents, pubID) {
			t.Fatalf("node %d: published entry missing from its own neighborhood", i)
		}
		if len(ents) != len(want)+1 || !subsetIDs(want, ents) {
			t.Fatalf("node %d: got %d entries, want boot %d + published", i, len(ents), len(want))
		}
	}

	// Delete the published entry (by id + object bytes) and one boot
	// entry (by id alone); both must leave exact answers.
	if err := nodes[1].Delete(pubID, obj, 5*time.Second); err != nil {
		t.Fatalf("delete published: %v", err)
	}
	if !sameIDs(completeQuery(t, nodes[2], obj, r), want) {
		t.Fatal("published entry still answered after delete")
	}

	const bootID = int32(7)
	if err := nodes[2].Delete(bootID, nil, 5*time.Second); err != nil {
		t.Fatalf("delete boot entry: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	// Find a query whose brute-force answer includes the deleted boot
	// entry and check the ring answers exactly that minus the tombstone.
	for tries := 0; ; tries++ {
		if tries > 200 {
			t.Fatal("no random query covered the deleted boot entry")
		}
		qobj := ds.RandomQuery(rng)
		qr := 0.3 + 0.2*rng.Float64()
		bf, err := ds.BruteForce(qobj, qr)
		if err != nil {
			t.Fatal(err)
		}
		if !hasID(bf, bootID) {
			continue
		}
		ents := completeQuery(t, nodes[tries%3], qobj, qr)
		if hasID(ents, bootID) {
			t.Fatal("deleted boot entry still answered")
		}
		if len(ents) != len(bf)-1 || !subsetIDs(ents, bf) {
			t.Fatalf("tombstoned answer diverged: got %d entries, brute force %d", len(ents), len(bf))
		}
		return
	}
}

// TestClientMutations drives Publish/Delete over the client protocol.
func TestClientMutations(t *testing.T) {
	data := testData()
	nodes := startReplicatedRing(t, 2, 1, data)
	c, err := Dial(nodes[0].Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj := EncodeVectorQuery([]float64{0.82, 0.11, 0.55})
	const id = int32(20_000)
	if err := c.Publish(id, obj, 5*time.Second); err != nil {
		t.Fatalf("client publish: %v", err)
	}
	out, err := c.Query(obj, 0.05, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !hasID(out.Entries, id) {
		t.Fatalf("client query missed the published entry: %+v", out)
	}
	info, err := c.Info(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replicas != 1 {
		t.Fatalf("info reports %d replicas, want 1", info.Replicas)
	}
	if err := c.Delete(id, obj, 5*time.Second); err != nil {
		t.Fatalf("client delete: %v", err)
	}
	out, err = c.Query(obj, 0.05, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hasID(out.Entries, id) {
		t.Fatal("client delete did not take effect")
	}
}

// TestDurableMutationReplay is the incremental-WAL contract: every
// online mutation appends one record, and a restart replays them on top
// of the corpus it builds.
func TestDurableMutationReplay(t *testing.T) {
	data := testData()
	dir := t.TempDir()
	cfg := testConfig(data)
	cfg.DataDir = dir
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := n.Addr()

	obj1 := EncodeVectorQuery([]float64{0.21, 0.42, 0.63})
	obj2 := EncodeVectorQuery([]float64{0.91, 0.13, 0.37})
	if err := n.Publish(10_000, obj1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(10_001, obj2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(10_001, obj2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(7, nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	n.Close()

	cfg2 := testConfig(data)
	cfg2.Listen = addr
	cfg2.DataDir = dir
	n2, err := Start(cfg2)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer n2.Close()
	if !n2.Recovered() {
		t.Fatal("restart did not recover from the data dir")
	}
	// The meta record plus exactly the four mutation records appended
	// online.
	base := 1
	if n2.replayed != base+4 {
		t.Fatalf("replayed %d records, want meta %d + 4 mutations", n2.replayed, base)
	}
	var extras, tombs int
	execRead(t, n2, func() { extras, tombs = len(n2.mine.extras), len(n2.mine.tombs) })
	if extras != 1 || tombs != 1 {
		t.Fatalf("recovered %d extras and %d tombstones, want 1 and 1", extras, tombs)
	}

	ents := completeQuery(t, n2, obj1, 0.05)
	if !hasID(ents, 10_000) {
		t.Fatal("replayed publish not answered after restart")
	}
	if hasID(completeQuery(t, n2, obj2, 0.05), 10_001) {
		t.Fatal("deleted published entry resurrected by replay")
	}
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for tries := 0; ; tries++ {
		if tries > 200 {
			t.Fatal("no random query covered the deleted boot entry")
		}
		qobj := ds.RandomQuery(rng)
		r := 0.3 + 0.2*rng.Float64()
		bf, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if !hasID(bf, 7) {
			continue
		}
		if hasID(completeQuery(t, n2, qobj, r), 7) {
			t.Fatal("boot tombstone lost across restart")
		}
		return
	}
}

// TestDurableAppendFailureRefusesMutation holds an ack to what
// clientMutRMsg says it means: a mutation whose journal append fails is
// refused — not applied, not acknowledged, and not there after a
// restart. Closing the store underneath the node makes every append
// fail.
func TestDurableAppendFailureRefusesMutation(t *testing.T) {
	data := testData()
	cfg := testConfig(data)
	cfg.DataDir = t.TempDir()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n.Close() }()
	execRead(t, n, func() {
		if err := n.store.Close(); err != nil {
			t.Error(err)
		}
	})

	const pubID, bootID = int32(10_000), int32(7)
	obj := EncodeVectorQuery([]float64{0.21, 0.42, 0.63})
	// untouched requires that neither mutation is visible through n.
	untouched := func(when string) {
		t.Helper()
		c, err := Dial(n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		info, err := c.Info(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if info.Extras != 0 {
			t.Fatalf("%s: node holds %d published entries, want 0", when, info.Extras)
		}
		if hasID(completeQuery(t, n, obj, 0), pubID) {
			t.Fatalf("%s: refused publish is answered", when)
		}
		if !hasID(completeQuery(t, n, objAt(n.data, int(n.data.Cols().pos[bootID])), 0), bootID) {
			t.Fatalf("%s: refused delete removed the boot entry", when)
		}
	}

	c, err := Dial(n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(pubID, obj, 5*time.Second); err == nil {
		t.Fatal("publish acknowledged though its journal append failed")
	}
	if err := c.Delete(bootID, nil, 5*time.Second); err == nil {
		t.Fatal("delete acknowledged though its journal append failed")
	}
	untouched("after the refusals")

	cfg.Listen = n.Addr()
	n.Close()
	if n, err = Start(cfg); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !n.Recovered() || n.replayed != 1 {
		t.Fatalf("restart: recovered=%v replayed=%d, want the meta record alone", n.Recovered(), n.replayed)
	}
	untouched("after a restart")
}
