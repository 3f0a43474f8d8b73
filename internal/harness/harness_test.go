package harness

import (
	"strings"
	"testing"
	"time"

	"landmarkdht/internal/core"
	"landmarkdht/internal/dataset"
	"landmarkdht/internal/metric"
)

// tinyScale keeps the integration tests fast while still exercising a
// real multi-node simulation.
func tinyScale() Scale {
	return Scale{
		Nodes:           48,
		DataN:           4000,
		Dim:             20,
		Queries:         60,
		DistinctQueries: 20,
		CorpusDocs:      1500,
		CorpusVocab:     12_000,
		CorpusTopics:    10,
		LandmarkSample:  200,
		Interarrival:    200 * time.Millisecond,
		LBPeriod:        2 * time.Second,
		Seed:            1,
	}
}

func TestScaleValidate(t *testing.T) {
	s := Scale{}
	if err := s.validate(); err == nil {
		t.Fatal("expected error for zero scale")
	}
	s = tinyScale()
	s.DistinctQueries = 1000
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	if s.DistinctQueries != s.Queries {
		t.Fatal("distinct not clamped to total")
	}
}

func TestSchemeNames(t *testing.T) {
	if (Scheme{Greedy, 5}).Name() != "Greedy-5" {
		t.Fatal("greedy name")
	}
	if (Scheme{KMeans, 10}).Name() != "K-mean-10" {
		t.Fatal("kmean name")
	}
}

func TestBuildSynthetic(t *testing.T) {
	w, err := BuildSynthetic(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Data) != 4000 || len(w.Queries) != 60 || len(w.Truth) != 60 {
		t.Fatalf("sizes: %d %d %d", len(w.Data), len(w.Queries), len(w.Truth))
	}
	// Repeated queries share ground truth.
	if &w.Truth[0][0] != &w.Truth[20][0] {
		t.Fatal("repeated queries should share truth slices")
	}
	for _, tr := range w.Truth {
		if len(tr) != 10 {
			t.Fatalf("truth size %d", len(tr))
		}
	}
}

func TestSelectLandmarksSchemes(t *testing.T) {
	w, _ := BuildSynthetic(tinyScale())
	for _, sc := range Figure2Schemes() {
		lms, sample, err := SelectLandmarks(sc, w.Data, 100, metric.L2, landmarkDenseMean(), 1)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if len(lms) != sc.K {
			t.Fatalf("%s: got %d landmarks", sc.Name(), len(lms))
		}
		if len(sample) != 100 {
			t.Fatalf("sample = %d", len(sample))
		}
	}
	if _, _, err := SelectLandmarks(Scheme{"bogus", 3}, w.Data, 10, metric.L2, nil, 1); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

// landmarkDenseMean avoids an import cycle in the test file header.
func landmarkDenseMean() func([]metric.Vector) metric.Vector {
	return func(items []metric.Vector) metric.Vector {
		out := make(metric.Vector, len(items[0]))
		for _, v := range items {
			for i := range v {
				out[i] += v[i]
			}
		}
		for i := range out {
			out[i] /= float64(len(items))
		}
		return out
	}
}

func TestDeployAndWorkload(t *testing.T) {
	scale := tinyScale()
	w, err := BuildSynthetic(scale)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := synDeploy(scale, w, Scheme{KMeans, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := dep.RunWorkload("K-mean-5", 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Recall <= 0.3 {
		t.Fatalf("recall = %v, implausibly low", cell.Recall)
	}
	if cell.Hops.Mean <= 0 {
		t.Fatal("no hops recorded")
	}
	if cell.RespMs.Mean <= 0 || cell.MaxLatMs.Mean < cell.RespMs.Mean {
		t.Fatalf("latency stats inconsistent: %v %v", cell.RespMs.Mean, cell.MaxLatMs.Mean)
	}
	if cell.QueryBytes.Mean <= 0 || cell.ResultBytes.Mean <= 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestRecallGrowsWithRange(t *testing.T) {
	scale := tinyScale()
	w, err := BuildSynthetic(scale)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := synDeploy(scale, w, Scheme{KMeans, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	small, err := dep.RunWorkload("K-mean-5", 0.001, false)
	if err != nil {
		t.Fatal(err)
	}
	large, err := dep.RunWorkload("K-mean-5", 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if large.Recall < small.Recall {
		t.Fatalf("recall did not grow with range: %.3f -> %.3f", small.Recall, large.Recall)
	}
	if large.Recall < 0.95 {
		t.Fatalf("recall at 20%% range = %.3f, want near 1", large.Recall)
	}
	if large.QueryBytes.Mean <= small.QueryBytes.Mean {
		t.Fatalf("query cost did not grow with range: %v -> %v", small.QueryBytes.Mean, large.QueryBytes.Mean)
	}
}

func TestWorkloadWithLB(t *testing.T) {
	scale := tinyScale()
	w, err := BuildSynthetic(scale)
	if err != nil {
		t.Fatal(err)
	}
	lb := core.LBConfig{Delta: 0, ProbeLevel: 4, Period: scale.LBPeriod}
	dep, err := synDeploy(scale, w, Scheme{KMeans, 5}, &lb)
	if err != nil {
		t.Fatal(err)
	}
	before := dep.Loads()
	cell, err := dep.RunWorkload("K-mean-5", 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Migrations == 0 {
		t.Fatal("no migrations under δ=0 on skewed data")
	}
	if cell.MaxLoad >= before[0] && before[0] > 2*scale.DataN/scale.Nodes {
		t.Fatalf("LB did not reduce max load: %d -> %d", before[0], cell.MaxLoad)
	}
	if dep.Sys.TotalEntries() != scale.DataN {
		t.Fatalf("entries not conserved: %d", dep.Sys.TotalEntries())
	}
}

func TestTable2(t *testing.T) {
	st, err := Table2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 1500 {
		t.Fatalf("docs = %d", st.Docs)
	}
	if st.Stats.P50 < 100 || st.Stats.P50 > 200 {
		t.Fatalf("median = %d", st.Stats.P50)
	}
}

func TestFigure5CorpusWorkload(t *testing.T) {
	scale := tinyScale()
	w, err := buildCorpus(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.queries) != scale.Queries {
		t.Fatalf("queries = %d", len(w.queries))
	}
	dep, err := corpusDeploy(scale, w, Scheme{KMeans, 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := dep.RunWorkload("K-mean-10", 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Recall <= 0 {
		t.Fatalf("corpus recall = %v", cell.Recall)
	}
}

func TestAblationRotation(t *testing.T) {
	res, err := AblationRotation(tinyScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	unrot, rot := res[0], res[1]
	if unrot.Rotated || !rot.Rotated {
		t.Fatal("result order wrong")
	}
	// Rotation must not make the combined hotspot worse; typically it
	// decorrelates the per-index hotspots.
	if rot.CombinedMax > unrot.CombinedMax {
		t.Fatalf("rotation worsened combined max: %d -> %d", unrot.CombinedMax, rot.CombinedMax)
	}
}

func TestPrinters(t *testing.T) {
	cells := []Cell{{Scheme: "X", RangeFactor: 0.05, Recall: 0.9}}
	table1 := dataset.Table1()
	var b strings.Builder
	for _, r := range []*Report{
		{Experiment: "fig2", Cells: cells},
		{Experiment: "fig3", Cells: cells},
		{Experiment: "fig4", Curves: []LoadCurve{{Scheme: "X", Loads: []int{5, 3, 1}, Before: []int{9}}}},
		{Experiment: "table1", Table1: &table1},
		{Experiment: "table2", Table2: &Table2Stats{}},
		{Experiment: "rotation", Rotation: []RotationResult{{}}},
		{Experiment: "lbsweep", LBSweep: []LBSweepCell{{}}},
	} {
		if err := r.Print(&b); err != nil {
			t.Fatal(err)
		}
	}
	out := b.String()
	for _, want := range []string{"scheme", "X", "Table 1", "Table 2", "rotation", "delta"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q", want)
		}
	}
	if err := (&Report{Experiment: "fig7"}).Print(&b); err == nil {
		t.Fatal("printed a report of an unknown experiment")
	}
}

func TestExpandHelpers(t *testing.T) {
	truth := [][]int32{{1}, {2}}
	ex := ExpandTruth(truth, 5)
	if len(ex) != 5 || ex[2][0] != 1 || ex[3][0] != 2 {
		t.Fatalf("expand = %v", ex)
	}
	qs := RepeatQueries([]int{7, 8}, 3)
	if len(qs) != 3 || qs[2] != 7 {
		t.Fatalf("repeat = %v", qs)
	}
}

func TestFigure2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	scale := tinyScale()
	scale.Queries = 40
	scale.DistinctQueries = 10
	cells, err := Figure2(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4*len(RangeFactors()) {
		t.Fatalf("cells = %d", len(cells))
	}
	// Per scheme, recall at the largest range factor must be >= recall
	// at the smallest.
	for si := 0; si < 4; si++ {
		first := cells[si*len(RangeFactors())]
		last := cells[(si+1)*len(RangeFactors())-1]
		if last.Recall < first.Recall {
			t.Fatalf("%s: recall shrank %.3f -> %.3f", first.Scheme, first.Recall, last.Recall)
		}
	}
}

func TestFigure4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	scale := tinyScale()
	scale.Queries = 30
	scale.DistinctQueries = 10
	curves, err := Figure4(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Loads) == 0 {
			t.Fatalf("%s: empty loads", c.Scheme)
		}
		// Sorted descending.
		for i := 1; i < len(c.Loads); i++ {
			if c.Loads[i] > c.Loads[i-1] {
				t.Fatalf("%s: loads not sorted", c.Scheme)
			}
		}
		// LB must have reduced the max load versus the initial skew.
		if len(c.Before) > 0 && c.Loads[0] > c.Before[0] {
			t.Fatalf("%s: LB increased max load %d -> %d", c.Scheme, c.Before[0], c.Loads[0])
		}
	}
}
