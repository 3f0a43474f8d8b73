package harness

import (
	"fmt"
	"io"
)

// Print renders r as the table lmsim prints, headed by the title of
// r.Experiment: trial cells as mean ± std, any other report through its
// experiment's printer.
func (r *Report) Print(w io.Writer) error {
	for _, e := range Experiments() {
		if e.ID != r.Experiment {
			continue
		}
		body := e.print
		if r.Trial != nil {
			body = printTrials
			e.Title += fmt.Sprintf(" (mean ± std over %d trials)", trialsOf(r.Trial))
		}
		fmt.Fprintf(w, "== %s ==\n", e.Title)
		body(w, r)
		fmt.Fprintln(w)
		return nil
	}
	return fmt.Errorf("harness: report of unknown experiment %q", r.Experiment)
}

// printCells renders a figure's cells as an aligned text table with
// the paper's metrics as columns.
func printCells(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-12s %8s %8s %6s %10s %10s %9s %11s %11s %7s\n",
		"scheme", "range%", "recall", "hops", "resp(ms)", "maxlat(ms)", "qmsgs", "qbytes", "rbytes", "nodes")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-12s %8.2f %8.3f %6.1f %10.1f %10.1f %9.1f %11.0f %11.0f %7.1f\n",
			c.Scheme, c.RangeFactor*100, c.Recall, c.Hops.Mean,
			c.RespMs.Mean, c.MaxLatMs.Mean, c.QueryMsgs.Mean,
			c.QueryBytes.Mean, c.ResultBytes.Mean, c.IndexNodes.Mean)
	}
}

// printCellsWithLB adds the load-balancing columns.
func printCellsWithLB(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-12s %8s %8s %6s %10s %10s %9s %9s %8s %8s %8s\n",
		"scheme", "range%", "recall", "hops", "resp(ms)", "maxlat(ms)", "qmsgs", "migr", "aborted", "maxload", "gini")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-12s %8.2f %8.3f %6.1f %10.1f %10.1f %9.1f %9d %8d %8d %8.3f\n",
			c.Scheme, c.RangeFactor*100, c.Recall, c.Hops.Mean,
			c.RespMs.Mean, c.MaxLatMs.Mean, c.QueryMsgs.Mean,
			c.Migrations, c.MigrationsAborted, c.MaxLoad, c.LoadGini)
	}
}

// printLoadCurves renders load distributions: a few representative
// points of each curve (the paper plots sorted per-node loads).
func printLoadCurves(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-12s %9s %9s %9s %9s %9s %9s %9s\n",
		"scheme", "max", "p99", "p90", "p50", "p10", "min", "before-max")
	for _, c := range r.Curves {
		pick := func(loads []int, frac float64) int {
			if len(loads) == 0 {
				return 0
			}
			i := int(frac * float64(len(loads)-1))
			return loads[i]
		}
		bm := 0
		if len(c.Before) > 0 {
			bm = c.Before[0]
		}
		fmt.Fprintf(w, "%-12s %9d %9d %9d %9d %9d %9d %9d\n",
			c.Scheme, pick(c.Loads, 0), pick(c.Loads, 0.01), pick(c.Loads, 0.10),
			pick(c.Loads, 0.50), pick(c.Loads, 0.90), pick(c.Loads, 1), bm)
	}
}

// printTable1 echoes the §4.2 dataset generation parameters.
func printTable1(w io.Writer, r *Report) {
	cfg := r.Table1
	fmt.Fprintf(w, "%-28s %d\n", "Number of objects", cfg.N)
	fmt.Fprintf(w, "%-28s %d\n", "Dimension", cfg.Dim)
	fmt.Fprintf(w, "%-28s [%g..%g]\n", "Range of each dimension", cfg.Lo, cfg.Hi)
	fmt.Fprintf(w, "%-28s %d\n", "Number of clusters", cfg.Clusters)
	fmt.Fprintf(w, "%-28s %g\n", "Deviation of each cluster", cfg.Dev)
}

// printTable2 renders the §4.3 document vector size distribution.
func printTable2(w io.Writer, r *Report) {
	st := r.Table2
	fmt.Fprintf(w, "%-9s %6s %6s %6s %8s %8s\n", "minimum", "5th", "50th", "95th", "maximum", "mean")
	fmt.Fprintf(w, "%-9d %6d %6d %6d %8d %8.1f\n",
		st.Stats.Min, st.Stats.P5, st.Stats.P50, st.Stats.P95, st.Stats.Max, st.Stats.Mean)
	fmt.Fprintf(w, "documents: %d   distinct terms: %d\n", st.Docs, st.DistinctTerms)
}

// printRotation renders ablation A1.
func printRotation(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-10s %8s %12s %14s %12s\n", "rotation", "indexes", "combined-max", "combined-gini", "same-hottest")
	for _, c := range r.Rotation {
		fmt.Fprintf(w, "%-10t %8d %12d %14.3f %12t\n",
			c.Rotated, c.NumIndexes, c.CombinedMax, c.CombinedGini, c.SameHottest)
	}
}

// printLBSweep renders ablation A3.
func printLBSweep(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-6s %6s %8s %8s %6s %9s %8s %8s\n",
		"delta", "probe", "recall", "gini", "hops", "migr", "aborted", "maxload")
	for _, c := range r.LBSweep {
		fmt.Fprintf(w, "%-6.2f %6d %8.3f %8.3f %6.1f %9d %8d %8d\n",
			c.Delta, c.ProbeLevel, c.Cell.Recall, c.Cell.LoadGini, c.Cell.Hops.Mean,
			c.Cell.Migrations, c.Cell.MigrationsAborted, c.Cell.MaxLoad)
	}
}

// printChurn renders ablation A6.
func printChurn(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-14s %8s %6s %6s %9s %8s %8s %6s\n",
		"mean-session", "recall", "crash", "join", "lost", "dropped", "resp(ms)", "hops")
	for _, c := range r.Churn {
		label := "none"
		if c.MeanSessionTime > 0 {
			label = c.MeanSessionTime.String()
		}
		fmt.Fprintf(w, "%-14s %8.3f %6d %6d %9d %8d %8.1f %6.1f\n",
			label, c.Cell.Recall, c.Crashes, c.Joins, c.LostEntries,
			c.Cell.Dropped, c.Cell.RespMs.Mean, c.Cell.Hops.Mean)
	}
}

// printFaults renders ablation A9.
func printFaults(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-6s %7s %7s %8s %8s %8s %9s %9s %6s\n",
		"loss%", "retry", "crashes", "recall", "dropped", "retrans", "recovered", "resp(ms)", "hops")
	for _, c := range r.Faults {
		fmt.Fprintf(w, "%-6.1f %7t %7d %8.3f %8d %8d %9d %9.1f %6.1f\n",
			c.Loss*100, c.Retry, c.Crashes, c.Cell.Recall, c.Cell.Dropped,
			c.Cell.Retries, c.Cell.Recovered, c.Cell.RespMs.Mean, c.Cell.Hops.Mean)
	}
}
