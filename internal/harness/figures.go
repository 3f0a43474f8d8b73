//lint:file-allow nogoroutine per-trial parallelism: each goroutine drives its own independent engine

package harness

import (
	"fmt"
	"runtime"
	"sync"

	"landmarkdht/internal/core"
	"landmarkdht/internal/dataset"
	"landmarkdht/internal/eval"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
)

// parallelMap runs fn(0..n-1) across at most GOMAXPROCS goroutines and
// returns the first error.
func parallelMap(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	errs := make(chan error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// sweep measures n configurations, each in a fresh deployment of its
// own, in parallel: cfg(i) stands configuration i up and names the one
// workload it runs there — a label and a range factor — and cell i of
// the result is that workload's.
func sweep[T any](n int, cfg func(i int) (dep *Deployment[T], label string, rf float64, err error)) ([]Cell, error) {
	cells := make([]Cell, n)
	err := parallelMap(n, func(i int) error {
		dep, label, rf, err := cfg(i)
		if err != nil {
			return err
		}
		cells[i], err = dep.RunWorkload(label, rf, false)
		return err
	})
	return cells, err
}

// paperLB is the load balancing of Figures 3 to 6: δ = 0 and P_l = 4,
// the paper's maximum-effect setting.
func paperLB(scale Scale) *core.LBConfig {
	return &core.LBConfig{Delta: 0, ProbeLevel: 4, Period: scale.LBPeriod}
}

// lbSweep runs every scheme at every range factor, each cell in a
// fresh deployment with paperLB, so every cell experiences the full
// migration churn. Cells are ordered by scheme then range factor.
func lbSweep[T any](scale Scale, schemes []Scheme, deploy func(Scheme, *core.LBConfig) (*Deployment[T], error)) ([]Cell, error) {
	rfs := RangeFactors()
	return sweep(len(schemes)*len(rfs), func(i int) (*Deployment[T], string, float64, error) {
		sc := schemes[i/len(rfs)]
		dep, err := deploy(sc, paperLB(scale))
		return dep, sc.Name(), rfs[i%len(rfs)], err
	})
}

// loadCurves deploys each scheme with paperLB, runs the workload at range
// factor 0.05 so balancing happens under live traffic, lets it settle
// for ten periods and reads the per-node loads before and after.
func loadCurves[T any](scale Scale, schemes []Scheme, deploy func(Scheme, *core.LBConfig) (*Deployment[T], error)) ([]LoadCurve, error) {
	curves := make([]LoadCurve, len(schemes))
	err := parallelMap(len(schemes), func(si int) error {
		dep, err := deploy(schemes[si], paperLB(scale))
		if err != nil {
			return err
		}
		before := dep.Loads()
		if _, err := dep.RunWorkload(schemes[si].Name(), 0.05, false); err != nil {
			return err
		}
		dep.SettleLB(10 * scale.LBPeriod)
		curves[si] = LoadCurve{Scheme: schemes[si].Name(), Loads: dep.Loads(), Before: before}
		return nil
	})
	return curves, err
}

// SynWorkload is the §4.2 synthetic dataset with its query set and
// ground truth.
type SynWorkload struct {
	Data    []metric.Vector
	Queries []metric.Vector
	Truth   [][]int32
	Space   metric.Space[metric.Vector]
}

// BuildSynthetic generates the Table 1 dataset (scaled), the query
// set, and exact ground truth.
func BuildSynthetic(scale Scale) (*SynWorkload, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cfg := dataset.ClusteredConfig{
		N: scale.DataN, Dim: scale.Dim, Lo: 0, Hi: 100,
		Clusters: 10, Dev: 20, Seed: scale.Seed,
	}
	data, distinct, err := dataset.ClusteredWithQueries(cfg, scale.DistinctQueries)
	if err != nil {
		return nil, err
	}
	truthD, err := eval.TopK(data, distinct, 10, metric.L2, 0)
	if err != nil {
		return nil, err
	}
	return &SynWorkload{
		Data:    data,
		Queries: RepeatQueries(distinct, scale.Queries),
		Truth:   ExpandTruth(truthD, scale.Queries),
		Space:   metric.EuclideanSpace("syn-l2", scale.Dim, 0, 100),
	}, nil
}

// synDeploy builds a deployment of one scheme over the synthetic
// workload.
func synDeploy(scale Scale, w *SynWorkload, sc Scheme, lb *core.LBConfig) (*Deployment[metric.Vector], error) {
	lms, _, err := SelectLandmarks(sc, w.Data, scale.LandmarkSample, metric.L2,
		landmark.DenseMean, scale.Seed+int64(sc.K)*101+int64(len(sc.Method)))
	if err != nil {
		return nil, err
	}
	return Deploy(DeploySpec[metric.Vector]{
		Scale:     scale,
		Space:     w.Space,
		Data:      w.Data,
		Queries:   w.Queries,
		Truth:     w.Truth,
		Landmarks: lms,
		Rotate:    true,
		LB:        lb,
	})
}

// Figure2 reproduces §4.2 Figure 2: recall and routing cost versus
// query range factor for the four landmark schemes, WITHOUT load
// balancing. One deployment per scheme is reused across range factors
// (the store is static without LB). Cells are ordered by scheme then
// range factor.
func Figure2(scale Scale) ([]Cell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	schemes := Figure2Schemes()
	rfs := RangeFactors()
	cells := make([]Cell, len(schemes)*len(rfs))
	err = parallelMap(len(schemes), func(si int) error {
		dep, err := synDeploy(scale, w, schemes[si], nil)
		if err != nil {
			return err
		}
		for ri, rf := range rfs {
			cell, err := dep.RunWorkload(schemes[si].Name(), rf, false)
			if err != nil {
				return err
			}
			cells[si*len(rfs)+ri] = cell
		}
		return nil
	})
	return cells, err
}

// Figure3 reproduces §4.2 Figure 3: the same sweep WITH dynamic load
// migration (δ = 0, P_l = 4, the paper's maximum-effect setting). Each
// cell runs in a fresh deployment so every range factor experiences
// the full migration churn.
func Figure3(scale Scale) ([]Cell, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	return lbSweep(scale, Figure2Schemes(), func(sc Scheme, lb *core.LBConfig) (*Deployment[metric.Vector], error) {
		return synDeploy(scale, w, sc, lb)
	})
}

// LoadCurve is one scheme's sorted (descending) per-node load
// distribution — the paper's Figure 4 / Figure 6 presentation.
type LoadCurve struct {
	Scheme string
	Loads  []int
	// Before is the distribution prior to load balancing.
	Before []int
}

// Figure4 reproduces §4.2 Figure 4: the load distribution on nodes for
// every scheme after the load-balancing workload.
func Figure4(scale Scale) ([]LoadCurve, error) {
	w, err := BuildSynthetic(scale)
	if err != nil {
		return nil, err
	}
	return loadCurves(scale, Figure2Schemes(), func(sc Scheme, lb *core.LBConfig) (*Deployment[metric.Vector], error) {
		return synDeploy(scale, w, sc, lb)
	})
}

// Table2Stats bundles the §4.3 corpus statistics.
type Table2Stats struct {
	Stats         dataset.SizeStats
	Docs          int
	DistinctTerms int
}

// Table2 reproduces the paper's Table 2 (document vector size
// distribution) on the synthetic TREC-AP substitute.
func Table2(scale Scale) (*Table2Stats, error) {
	c, err := buildCorpus(scale)
	if err != nil {
		return nil, err
	}
	return &Table2Stats{
		Stats:         dataset.VectorSizeStats(c.corpus.Docs),
		Docs:          len(c.corpus.Docs),
		DistinctTerms: dataset.DistinctTerms(c.corpus.Docs),
	}, nil
}

// corpusWorkload is the §4.3 document workload.
type corpusWorkload struct {
	corpus  *dataset.Corpus
	queries []metric.SparseVector
	truth   [][]int32
	space   metric.Space[metric.SparseVector]
}

func buildCorpus(scale Scale) (*corpusWorkload, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	if scale.CorpusDocs <= 0 || scale.CorpusVocab <= 0 || scale.CorpusTopics <= 0 {
		return nil, fmt.Errorf("harness: corpus scale not configured")
	}
	// Scale the topic structure to the vocabulary: the corpus needs at
	// least as many topics as distinct query topics, with blocks small
	// enough to fit the mid-frequency region.
	topics := scale.CorpusTopics * 2
	if topics < 10 {
		topics = 10
	}
	topicTerms := scale.CorpusVocab / (8 * topics)
	if topicTerms > 400 {
		topicTerms = 400
	}
	if topicTerms < 10 {
		topicTerms = 10
	}
	c, err := dataset.NewCorpus(dataset.CorpusConfig{
		Docs: scale.CorpusDocs, Vocab: scale.CorpusVocab,
		Topics: topics, TopicTerms: topicTerms, Seed: scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	repeat := (scale.Queries + scale.CorpusTopics - 1) / scale.CorpusTopics
	qs, err := c.Queries(scale.CorpusTopics, repeat, scale.Seed+5)
	if err != nil {
		return nil, err
	}
	qs = qs[:scale.Queries]
	distinct := qs[:scale.CorpusTopics]
	truthD, err := eval.TopK(c.Docs, distinct, 10, metric.CosineAngle, 0)
	if err != nil {
		return nil, err
	}
	truth := make([][]int32, len(qs))
	for i := range qs {
		truth[i] = truthD[i%scale.CorpusTopics]
	}
	return &corpusWorkload{
		corpus:  c,
		queries: qs,
		truth:   truth,
		space:   metric.CosineSpace("trec-cos"),
	}, nil
}

// Figure5Schemes returns the two schemes of §4.3.
func Figure5Schemes() []Scheme {
	return []Scheme{{Greedy, 10}, {KMeans, 10}}
}

func corpusDeploy(scale Scale, w *corpusWorkload, sc Scheme, lb *core.LBConfig) (*Deployment[metric.SparseVector], error) {
	lms, sample, err := SelectLandmarks(sc, w.corpus.Docs, max(scale.LandmarkSample, 500), metric.CosineAngle,
		landmark.SparseMean, scale.Seed+int64(sc.K)*101+int64(len(sc.Method)))
	if err != nil {
		return nil, err
	}
	return Deploy(DeploySpec[metric.SparseVector]{
		Scale:          scale,
		Space:          w.space,
		Data:           w.corpus.Docs,
		Queries:        w.queries,
		Truth:          w.truth,
		Landmarks:      lms,
		BoundarySample: sample, // §4.3: boundary from the selection procedure
		Rotate:         true,
		LB:             lb,
	})
}

// Figure5 reproduces §4.3 Figure 5: recall and routing cost on the
// TREC-AP substitute, Greedy-10 vs K-mean-10, with load balancing.
func Figure5(scale Scale) ([]Cell, error) {
	w, err := buildCorpus(scale)
	if err != nil {
		return nil, err
	}
	return lbSweep(scale, Figure5Schemes(), func(sc Scheme, lb *core.LBConfig) (*Deployment[metric.SparseVector], error) {
		return corpusDeploy(scale, w, sc, lb)
	})
}

// Figure6 reproduces §4.3 Figure 6: the load distribution on the
// TREC-AP substitute with load balancing. The paper's observation:
// greedy's single-key pile-ups cannot be split, so its distribution
// stays skewed; k-means spreads far more evenly.
func Figure6(scale Scale) ([]LoadCurve, error) {
	w, err := buildCorpus(scale)
	if err != nil {
		return nil, err
	}
	return loadCurves(scale, Figure5Schemes(), func(sc Scheme, lb *core.LBConfig) (*Deployment[metric.SparseVector], error) {
		return corpusDeploy(scale, w, sc, lb)
	})
}
