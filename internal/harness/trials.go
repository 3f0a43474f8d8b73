package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// TrialCell aggregates one (scheme, range-factor) cell across repeated
// trials with different seeds: mean and sample standard deviation of
// the headline metrics. Reporting variability across seeds is the
// statistically sound way to present simulation results (single-seed
// numbers, as in the paper, can mislead).
type TrialCell struct {
	Scheme      string
	RangeFactor float64
	Trials      int

	RecallMean, RecallStd         float64
	HopsMean, HopsStd             float64
	RespMsMean, RespMsStd         float64
	QueryMsgsMean, QueryMsgsStd   float64
	QueryBytesMean, QueryBytesStd float64
}

// Trials runs the experiment n times with seeds scale.Seed,
// scale.Seed+1, … and aggregates matching cells. The experiment
// function receives the reseeded scale and must return cells with
// stable (Scheme, RangeFactor) identities across trials.
func Trials(scale Scale, n int, experiment func(Scale) ([]Cell, error)) ([]TrialCell, error) {
	if n <= 0 {
		return nil, fmt.Errorf("harness: trial count must be positive, got %d", n)
	}
	type key struct {
		scheme string
		rf     float64
	}
	acc := make(map[key][]Cell)
	var order []key
	for trial := 0; trial < n; trial++ {
		s := scale
		s.Seed = scale.Seed + int64(trial)
		cells, err := experiment(s)
		if err != nil {
			return nil, fmt.Errorf("harness: trial %d: %w", trial, err)
		}
		for _, c := range cells {
			k := key{c.Scheme, c.RangeFactor}
			if _, seen := acc[k]; !seen {
				order = append(order, k)
			}
			acc[k] = append(acc[k], c)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].scheme != order[j].scheme {
			return order[i].scheme < order[j].scheme
		}
		return order[i].rf < order[j].rf
	})
	out := make([]TrialCell, 0, len(order))
	for _, k := range order {
		cells := acc[k]
		tc := TrialCell{Scheme: k.scheme, RangeFactor: k.rf, Trials: len(cells)}
		tc.RecallMean, tc.RecallStd = meanStd(cells, func(c Cell) float64 { return c.Recall })
		tc.HopsMean, tc.HopsStd = meanStd(cells, func(c Cell) float64 { return c.Hops.Mean })
		tc.RespMsMean, tc.RespMsStd = meanStd(cells, func(c Cell) float64 { return c.RespMs.Mean })
		tc.QueryMsgsMean, tc.QueryMsgsStd = meanStd(cells, func(c Cell) float64 { return c.QueryMsgs.Mean })
		tc.QueryBytesMean, tc.QueryBytesStd = meanStd(cells, func(c Cell) float64 { return c.QueryBytes.Mean })
		out = append(out, tc)
	}
	return out, nil
}

func meanStd(cells []Cell, get func(Cell) float64) (mean, std float64) {
	n := float64(len(cells))
	for _, c := range cells {
		mean += get(c)
	}
	mean /= n
	if len(cells) < 2 {
		return mean, 0
	}
	var ss float64
	for _, c := range cells {
		d := get(c) - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// printTrials renders trial-aggregated cells as mean±std.
func printTrials(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%-12s %8s %17s %15s %17s %19s\n",
		"scheme", "range%", "recall", "hops", "resp(ms)", "qmsgs")
	for _, c := range r.Trial {
		fmt.Fprintf(w, "%-12s %8.2f %9.3f ± %5.3f %8.1f ± %4.1f %9.1f ± %5.1f %10.1f ± %6.1f\n",
			c.Scheme, c.RangeFactor*100,
			c.RecallMean, c.RecallStd,
			c.HopsMean, c.HopsStd,
			c.RespMsMean, c.RespMsStd,
			c.QueryMsgsMean, c.QueryMsgsStd)
	}
}

func trialsOf(cells []TrialCell) int {
	if len(cells) == 0 {
		return 0
	}
	return cells[0].Trials
}
