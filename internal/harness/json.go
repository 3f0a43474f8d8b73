package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"landmarkdht/internal/dataset"
)

// Report is the machine-readable form of an experiment's output,
// suitable for archiving runs and diffing reproduction results across
// versions.
type Report struct {
	// Experiment is the experiment id ("fig2", "table2", …).
	Experiment string `json:"experiment"`
	// Scale records the configuration the experiment ran at.
	Scale Scale `json:"scale"`
	// The fields below carry the experiment's data series; only the
	// relevant ones are set.
	Cells    []Cell           `json:"cells,omitempty"`
	Curves   []LoadCurve      `json:"curves,omitempty"`
	Churn    []ChurnCell      `json:"churn,omitempty"`
	Faults   []FaultCell      `json:"faults,omitempty"`
	LBSweep  []LBSweepCell    `json:"lb_sweep,omitempty"`
	Rotation []RotationResult `json:"rotation,omitempty"`
	// Table1 echoes the parameters BuildSynthetic generates with.
	Table1  *dataset.ClusteredConfig `json:"table1,omitempty"`
	Table2  *Table2Stats             `json:"table2,omitempty"`
	Mapping []MappingCell            `json:"mapping,omitempty"`
	Trial   []TrialCell              `json:"trials,omitempty"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("harness: encoding report: %w", err)
	}
	return nil
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) { //lint:allow deadexport TestGoldenTables reads every JSON golden through it
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("harness: decoding report: %w", err)
	}
	return &r, nil
}
