package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTrialsAggregation(t *testing.T) {
	// A synthetic experiment whose cells depend on the seed.
	fake := func(s Scale) ([]Cell, error) {
		v := float64(s.Seed)
		return []Cell{
			{Scheme: "A", RangeFactor: 0.1, Recall: v},
			{Scheme: "B", RangeFactor: 0.1, Recall: 2 * v},
		}, nil
	}
	scale := tinyScale()
	scale.Seed = 1
	cells, err := Trials(scale, 3, fake) // seeds 1,2,3 → A: 1,2,3; B: 2,4,6
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	a := cells[0]
	if a.Scheme != "A" || a.Trials != 3 {
		t.Fatalf("cell A = %+v", a)
	}
	if a.RecallMean != 2 {
		t.Fatalf("A mean = %v, want 2", a.RecallMean)
	}
	if a.RecallStd != 1 {
		t.Fatalf("A std = %v, want 1", a.RecallStd)
	}
	b := cells[1]
	if b.RecallMean != 4 || b.RecallStd != 2 {
		t.Fatalf("B = %+v", b)
	}
}

func TestTrialsValidation(t *testing.T) {
	if _, err := Trials(tinyScale(), 0, nil); err == nil {
		t.Fatal("expected error for zero trials")
	}
}

func TestTrialsSingleTrialZeroStd(t *testing.T) {
	fake := func(s Scale) ([]Cell, error) {
		return []Cell{{Scheme: "X", RangeFactor: 0.5, Recall: 7}}, nil
	}
	cells, err := Trials(tinyScale(), 1, fake)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].RecallStd != 0 || cells[0].RecallMean != 7 {
		t.Fatalf("cell = %+v", cells[0])
	}
}

func TestTrialsRealExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	scale := tinyScale()
	scale.Queries = 30
	scale.DistinctQueries = 10
	cells, err := Trials(scale, 2, AblationK)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Trials != 2 {
			t.Fatalf("trials = %d", c.Trials)
		}
		if c.RecallMean < 0 || c.RecallMean > 1 {
			t.Fatalf("recall mean = %v", c.RecallMean)
		}
	}
}

func TestPrintTrials(t *testing.T) {
	var b bytes.Buffer
	rep := &Report{Experiment: "fig2", Trial: []TrialCell{
		{Scheme: "A", RangeFactor: 0.05, Trials: 3, RecallMean: 0.5, RecallStd: 0.1},
	}}
	if err := rep.Print(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "0.500 ± 0.100") {
		t.Fatalf("output missing mean±std: %s", out)
	}
	if !strings.Contains(out, "3 trials") {
		t.Fatalf("output missing trial count: %s", out)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Experiment: "fig2",
		Scale:      tinyScale(),
		Cells: []Cell{
			{Scheme: "K-mean-10", RangeFactor: 0.05, Recall: 0.93},
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "fig2" || len(got.Cells) != 1 {
		t.Fatalf("report = %+v", got)
	}
	if got.Cells[0].Recall != 0.93 || got.Cells[0].Scheme != "K-mean-10" {
		t.Fatalf("cell = %+v", got.Cells[0])
	}
	if got.Scale.Nodes != 48 {
		t.Fatalf("scale = %+v", got.Scale)
	}
}

func TestReadReportError(t *testing.T) {
	if _, err := ReadReport(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
}
