package core

import (
	"math"
	"math/rand"
	"testing"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/dataset"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
	"landmarkdht/internal/wire"
)

// Size accounting charges each message what the codec encodes: the
// same searches with and without EncodeWire send as many query and
// result messages and as many bytes of each.
func TestModelMatchesWireSizes(t *testing.T) {
	acct, enc := buildFixture(t, 32, 2000, 3, false), buildWireFixture(t, 32, 2000)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		q := acct.data[rng.Intn(len(acct.data))].Clone()
		src, r := rng.Intn(32), 2+rng.Float64()*15
		a := acct.runRange(t, src, q, r, QueryOpts{}).Stats
		w := enc.runRange(t, src, q, r, QueryOpts{}).Stats
		if a.QueryMsgs != w.QueryMsgs || a.QueryBytes != w.QueryBytes || a.ResultMsgs != w.ResultMsgs || a.ResultBytes != w.ResultBytes {
			t.Fatalf("trial %d: accounted %d query msgs / %d B, %d result msgs / %d B; encoded %d / %d B, %d / %d B",
				trial, a.QueryMsgs, a.QueryBytes, a.ResultMsgs, a.ResultBytes, w.QueryMsgs, w.QueryBytes, w.ResultMsgs, w.ResultBytes)
		}
	}
}

// buildWireFixture mirrors buildFixture but runs every query and
// result message through the real binary codec.
func buildWireFixture(t *testing.T, nNodes, nData int) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: nNodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.EncodeWire = true
	sys := NewSystem(simrt.New(eng), model, cfg)
	rng := rand.New(rand.NewSource(2))
	ids := make([]chord.ID, 0, nNodes)
	used := map[chord.ID]bool{}
	for i := 0; i < nNodes; i++ {
		id := chord.ID(rng.Uint64())
		for used[id] {
			id = chord.ID(rng.Uint64())
		}
		used[id] = true
		if _, err := sys.AddNode(id, i); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sys.Stabilize()

	data, err := dataset.Clustered(dataset.ClusteredConfig{
		N: nData, Dim: 2, Lo: 0, Hi: 100, Clusters: 4, Dev: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := metric.EuclideanSpace("test-l2", 2, 0, 100)
	lms, err := landmark.Greedy(rng, data[:min(200, len(data))], 3, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := indexspace.New(space, lms)
	if err != nil {
		t.Fatal(err)
	}
	part, err := emb.Partitioner(false)
	if err != nil {
		t.Fatal(err)
	}
	ix := &Index{
		Name:    space.Name,
		Part:    part,
		MaxDist: space.Max,
		Dist: func(payload any, obj ObjectID) float64 {
			return metric.L2(payload.(metric.Vector), data[obj])
		},
	}
	if err := sys.DeployIndex(ix); err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, len(data))
	for i, v := range data {
		entries[i] = Entry{Obj: ObjectID(i), Point: emb.Map(v)}
	}
	if err := sys.BulkLoad(ix.Name, entries); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, sys: sys, data: data, emb: emb, ids: ids}
}

// With the wire codec on, result SETS stay exact (widening only adds
// candidates, which exact refinement removes); reported distances are
// quantized upward by at most one quantum of MaxDist/65535.
func TestWireModeExactSets(t *testing.T) {
	f := buildWireFixture(t, 32, 2000)
	rng := rand.New(rand.NewSource(5))
	quantum := f.sys.index["test-l2"].MaxDist / 65535 * 1.01
	for trial := 0; trial < 20; trial++ {
		q := f.data[rng.Intn(len(f.data))].Clone()
		q[0] += rng.NormFloat64()
		r := 2 + rng.Float64()*15
		want := f.bruteRange(q, r)
		got := f.runRange(t, rng.Intn(32), q, r, QueryOpts{})
		if len(got.Results) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got.Results), len(want))
		}
		for _, res := range got.Results {
			if !want[res.Obj] {
				t.Fatalf("false positive %d", res.Obj)
			}
			exact := metric.L2(q, f.data[res.Obj])
			if res.Dist < exact-1e-9 {
				t.Fatalf("distance understated: %v < %v", res.Dist, exact)
			}
			if res.Dist-exact > quantum {
				t.Fatalf("distance overstated beyond quantum: %v vs %v", res.Dist, exact)
			}
		}
	}
}

func TestWireModeBytesMatchModel(t *testing.T) {
	f := buildWireFixture(t, 32, 2000)
	got := f.runRange(t, 0, f.data[0], 30, QueryOpts{TopK: 10})
	st := got.Stats
	// The codec produces exactly the model's sizes, so accounting must
	// line up with the closed-form: since message sizes depend on the
	// subquery count per message, check the floor/ceiling instead.
	if st.QueryMsgs > 0 {
		minBytes := int64(st.QueryMsgs) * int64(wire.QuerySize(1, 3))
		if st.QueryBytes < minBytes {
			t.Fatalf("query bytes %d below 1-subquery floor %d", st.QueryBytes, minBytes)
		}
	}
	if st.ResultMsgs > 0 {
		minBytes := int64(st.ResultMsgs) * int64(wire.ResultSize(0))
		if st.ResultBytes < minBytes {
			t.Fatalf("result bytes %d below header floor %d", st.ResultBytes, minBytes)
		}
	}
}

func TestWireModeTopK(t *testing.T) {
	f := buildWireFixture(t, 32, 2000)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5; trial++ {
		q := f.data[rng.Intn(len(f.data))]
		got := f.runRange(t, rng.Intn(32), q, 25, QueryOpts{TopK: 10})
		if len(got.Results) > 10 {
			t.Fatalf("topK returned %d", len(got.Results))
		}
		// The true nearest object must be present (distance 0 survives
		// any quantization ordering).
		found := false
		for _, res := range got.Results {
			if metric.L2(q, f.data[res.Obj]) < 1e-9 {
				found = true
			}
		}
		if !found {
			t.Fatal("query point's own object missing from top-k")
		}
	}
}

func TestWireModeDistancesMonotone(t *testing.T) {
	f := buildWireFixture(t, 16, 800)
	got := f.runRange(t, 0, f.data[0], 20, QueryOpts{})
	for i := 1; i < len(got.Results); i++ {
		if got.Results[i].Dist < got.Results[i-1].Dist {
			t.Fatal("results not sorted after quantization")
		}
	}
	if math.IsNaN(got.Results[0].Dist) {
		t.Fatal("NaN distance")
	}
}
