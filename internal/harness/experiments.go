package harness

import (
	"io"

	"landmarkdht/internal/dataset"
)

// An Experiment is one table, figure or ablation that lmsim
// regenerates: how it runs and how its report prints.
type Experiment struct {
	// ID names the experiment on lmsim's command line and in
	// Report.Experiment.
	ID string
	// Title heads the experiment's table.
	Title string
	// Cells is set on a cell experiment: one Cell per scheme and range
	// factor, which Run can repeat over seeds.
	Cells func(Scale) ([]Cell, error)
	// run fills the report of any other experiment; losses is the
	// message loss sweep, which faults alone reads.
	run   func(r *Report, losses []float64) error
	print func(w io.Writer, r *Report)
}

// Experiments lists every experiment in the order lmsim's "all" runs
// them.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: Parameters for Datasets Generation", print: printTable1,
			run: func(r *Report, _ []float64) error {
				cfg := dataset.Table1()
				cfg.N, cfg.Dim, cfg.Seed = r.Scale.DataN, r.Scale.Dim, r.Scale.Seed
				r.Table1 = &cfg
				return nil
			}},
		{ID: "table2", Title: "Table 2: The Distribution of Doc Vector Sizes", print: printTable2,
			run: func(r *Report, _ []float64) (err error) {
				r.Table2, err = Table2(r.Scale)
				return err
			}},
		{ID: "fig2", Title: "Figure 2: synthetic dataset, no load balancing", Cells: Figure2, print: printCells},
		{ID: "fig3", Title: "Figure 3: synthetic dataset, with load balancing (δ=0, P_l=4)", Cells: Figure3, print: printCellsWithLB},
		{ID: "fig4", Title: "Figure 4: load distribution on nodes (synthetic, with LB)", print: printLoadCurves,
			run: func(r *Report, _ []float64) (err error) {
				r.Curves, err = Figure4(r.Scale)
				return err
			}},
		{ID: "fig5", Title: "Figure 5: TREC-AP substitute, with load balancing", Cells: Figure5, print: printCellsWithLB},
		{ID: "fig6", Title: "Figure 6: load distribution (TREC-AP substitute)", print: printLoadCurves,
			run: func(r *Report, _ []float64) (err error) {
				r.Curves, err = Figure6(r.Scale)
				return err
			}},
		{ID: "rotation", Title: "Ablation A1: space-mapping rotation (multi-index hotspots)", print: printRotation,
			run: func(r *Report, _ []float64) (err error) {
				r.Rotation, err = AblationRotation(r.Scale, 3)
				return err
			}},
		{ID: "naive", Title: "Ablation A2: embedded-tree routing vs naive per-node routing", Cells: AblationNaive, print: printCells},
		{ID: "lbsweep", Title: "Ablation A3: load-balancing knobs (δ, P_l)", print: printLBSweep,
			run: func(r *Report, _ []float64) (err error) {
				r.LBSweep, err = AblationLB(r.Scale)
				return err
			}},
		{ID: "ksweep", Title: "Ablation A4: landmark count sweep (range factor 2%)", Cells: AblationK, print: printCells},
		{ID: "pns", Title: "Ablation A5: proximity neighbor selection on/off", Cells: AblationPNS, print: printCells},
		{ID: "churn", Title: "Ablation A6: continuous node churn (K-mean-10, range factor 5%)", print: printChurn,
			run: func(r *Report, _ []float64) (err error) {
				r.Churn, err = AblationChurn(r.Scale)
				return err
			}},
		{ID: "faults", Title: "Ablation A9: injected message loss, fire-and-forget vs retries (K-mean-10, range factor 5%)", print: printFaults,
			run: func(r *Report, losses []float64) (err error) {
				r.Faults, err = AblationFaults(r.Scale, losses)
				return err
			}},
		{ID: "mapping", Title: "Ablation A7: k-d (Morton) vs Hilbert index-space mapping (range factor 5%)", print: printMapping,
			run: func(r *Report, _ []float64) (err error) {
				r.Mapping, err = AblationMapping(r.Scale)
				return err
			}},
	}
}

// Run runs e at scale and returns its report. A cell experiment runs
// over trials consecutive seeds when trials > 1 and reports their mean
// and spread; losses reaches faults.
func (e Experiment) Run(scale Scale, trials int, losses []float64) (r *Report, err error) {
	r = &Report{Experiment: e.ID, Scale: scale}
	switch {
	case e.Cells == nil:
		err = e.run(r, losses)
	case trials > 1:
		r.Trial, err = Trials(scale, trials, e.Cells)
	default:
		r.Cells, err = e.Cells(scale)
	}
	return r, err
}
