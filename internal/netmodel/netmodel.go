// Package netmodel provides pairwise network latency models for the
// simulator.
//
// The paper derives its network model from the King dataset: measured
// pairwise round-trip times between 1740 DNS servers with an average
// RTT of 180 ms. That dataset is not redistributable, so SyntheticKing
// generates a statistically similar matrix: hosts are embedded in a
// low-dimensional Euclidean latency space (the same structure that
// network coordinate systems such as Vivaldi recover from the King
// data) plus a per-host access delay and log-normal jitter, calibrated
// so the mean pairwise RTT matches a target (180 ms by default).
package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Model yields the one-way latency between two hosts identified by
// dense indices in [0, Size). Implementations must be symmetric
// (Latency(a,b) == Latency(b,a)), return zero for a == b, and be safe
// for concurrent readers.
type Model interface {
	// Latency returns the one-way delay from host a to host b.
	Latency(a, b int) time.Duration
	// Size returns the number of hosts the model covers.
	Size() int
}

// Constant is a model in which every distinct pair has the same
// one-way latency.
type Constant struct {
	N      int
	OneWay time.Duration
}

// Latency implements Model.
func (c Constant) Latency(a, b int) time.Duration {
	if a == b {
		return 0
	}
	return c.OneWay
}

// Size implements Model.
func (c Constant) Size() int { return c.N }

// Matrix is a model backed by an explicit symmetric matrix of one-way
// latencies.
type Matrix struct {
	n   int
	lat []time.Duration // row-major n x n
}

// Latency implements Model.
func (m *Matrix) Latency(a, b int) time.Duration { return m.lat[a*m.n+b] }

// Size implements Model.
func (m *Matrix) Size() int { return m.n }

// KingConfig parameterizes the synthetic King-like model.
type KingConfig struct {
	N         int           // number of hosts
	MeanRTT   time.Duration // target average round-trip time (0 => 180ms)
	Dim       int           // embedding dimensionality (0 => 5)
	JitterStd float64       // log-normal sigma for multiplicative jitter (<0 => none, 0 => 0.25)
	Seed      int64
}

// SyntheticKing is the King-dataset substitute: a fixed matrix sampled
// from a Euclidean embedding with access delays and jitter, then
// rescaled to hit the target mean RTT exactly.
type SyntheticKing struct {
	*Matrix
	cfg KingConfig
}

// NewSyntheticKing generates the model. Generation is deterministic in
// cfg.Seed.
func NewSyntheticKing(cfg KingConfig) (*SyntheticKing, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("netmodel: N must be positive, got %d", cfg.N)
	}
	if cfg.MeanRTT <= 0 {
		cfg.MeanRTT = 180 * time.Millisecond
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 5
	}
	switch {
	case cfg.JitterStd < 0:
		cfg.JitterStd = 0
	case cfg.JitterStd == 0:
		cfg.JitterStd = 0.25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Embed hosts in a unit hypercube; add a heavy-tailed per-host
	// access delay (models last-mile links, the dominant source of
	// skew in the King data).
	coords := make([][]float64, cfg.N)
	access := make([]float64, cfg.N)
	for i := range coords {
		coords[i] = make([]float64, cfg.Dim)
		for d := range coords[i] {
			coords[i][d] = rng.Float64()
		}
		access[i] = rng.ExpFloat64() * 0.15 // relative units
	}

	raw := make([]float64, cfg.N*cfg.N)
	var sum float64
	var pairs int
	for i := 0; i < cfg.N; i++ {
		for j := i + 1; j < cfg.N; j++ {
			var d2 float64
			for d := 0; d < cfg.Dim; d++ {
				diff := coords[i][d] - coords[j][d]
				d2 += diff * diff
			}
			v := math.Sqrt(d2) + access[i] + access[j]
			if cfg.JitterStd > 0 {
				v *= math.Exp(rng.NormFloat64() * cfg.JitterStd)
			}
			raw[i*cfg.N+j] = v
			raw[j*cfg.N+i] = v
			sum += v
			pairs++
		}
	}
	// Rescale so the mean pairwise one-way latency is MeanRTT/2.
	targetOneWay := float64(cfg.MeanRTT) / 2
	scale := 1.0
	if pairs > 0 && sum > 0 {
		scale = targetOneWay / (sum / float64(pairs))
	}
	m := &Matrix{n: cfg.N, lat: make([]time.Duration, cfg.N*cfg.N)}
	for i := range raw {
		m.lat[i] = time.Duration(raw[i] * scale)
	}
	return &SyntheticKing{Matrix: m, cfg: cfg}, nil
}

// MeanRTT returns the realized average round-trip time over all
// distinct pairs.
func MeanRTT(m Model) time.Duration { //lint:allow deadexport the oracle the King calibration tests hold NewSyntheticKing's mean RTT to
	n := m.Size()
	if n < 2 {
		return 0
	}
	var sum time.Duration
	var pairs int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += 2 * m.Latency(i, j)
			pairs++
		}
	}
	return time.Duration(int64(sum) / pairs)
}
