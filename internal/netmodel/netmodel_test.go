package netmodel

import (
	"math"
	"testing"
	"time"
)

func TestConstant(t *testing.T) {
	c := Constant{N: 10, OneWay: 50 * time.Millisecond}
	if c.Size() != 10 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.Latency(3, 3) != 0 {
		t.Fatal("self latency must be zero")
	}
	if c.Latency(1, 2) != 50*time.Millisecond {
		t.Fatalf("latency = %v", c.Latency(1, 2))
	}
	if c.Latency(1, 2) != c.Latency(2, 1) {
		t.Fatal("not symmetric")
	}
}

func TestSyntheticKingMeanRTT(t *testing.T) {
	k, err := NewSyntheticKing(KingConfig{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := MeanRTT(k)
	want := 180 * time.Millisecond
	if math.Abs(float64(got-want)) > float64(want)/100 {
		t.Fatalf("mean RTT = %v, want within 1%% of %v", got, want)
	}
}

func TestSyntheticKingCustomMean(t *testing.T) {
	k, err := NewSyntheticKing(KingConfig{N: 100, MeanRTT: 80 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := MeanRTT(k)
	if math.Abs(float64(got-80*time.Millisecond)) > float64(time.Millisecond) {
		t.Fatalf("mean RTT = %v, want ~80ms", got)
	}
}

func TestSyntheticKingProperties(t *testing.T) {
	k, err := NewSyntheticKing(KingConfig{N: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k.Size(); i++ {
		if k.Latency(i, i) != 0 {
			t.Fatalf("self latency nonzero at %d", i)
		}
		for j := i + 1; j < k.Size(); j++ {
			if k.Latency(i, j) != k.Latency(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if k.Latency(i, j) <= 0 {
				t.Fatalf("non-positive latency at (%d,%d): %v", i, j, k.Latency(i, j))
			}
		}
	}
}

func TestSyntheticKingDeterministic(t *testing.T) {
	a, _ := NewSyntheticKing(KingConfig{N: 50, Seed: 9})
	b, _ := NewSyntheticKing(KingConfig{N: 50, Seed: 9})
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.Latency(i, j) != b.Latency(i, j) {
				t.Fatalf("same seed diverges at (%d,%d)", i, j)
			}
		}
	}
	c, _ := NewSyntheticKing(KingConfig{N: 50, Seed: 10})
	same := true
	for i := 0; i < 50 && same; i++ {
		for j := 0; j < 50; j++ {
			if a.Latency(i, j) != c.Latency(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestSyntheticKingHeterogeneous(t *testing.T) {
	// The point of substituting King: latencies must be spread out, not
	// uniform. Check the coefficient of variation is substantial.
	k, _ := NewSyntheticKing(KingConfig{N: 100, Seed: 4})
	var vals []float64
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			vals = append(vals, float64(k.Latency(i, j)))
		}
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var varsum float64
	for _, v := range vals {
		varsum += (v - mean) * (v - mean)
	}
	cv := math.Sqrt(varsum/float64(len(vals))) / mean
	if cv < 0.3 {
		t.Fatalf("coefficient of variation = %.3f, want >= 0.3 (heterogeneous latencies)", cv)
	}
}

func TestSyntheticKingRejectsBadN(t *testing.T) {
	if _, err := NewSyntheticKing(KingConfig{N: 0}); err == nil {
		t.Fatal("expected error for N=0")
	}
}

func TestSyntheticKingNoJitter(t *testing.T) {
	k, err := NewSyntheticKing(KingConfig{N: 20, Seed: 5, JitterStd: -1})
	if err != nil {
		t.Fatal(err)
	}
	if k.cfg.JitterStd != 0 {
		t.Fatalf("jitter = %v, want 0", k.cfg.JitterStd)
	}
}

func TestMeanRTTTiny(t *testing.T) {
	if MeanRTT(Constant{N: 1, OneWay: time.Second}) != 0 {
		t.Fatal("single-host mean RTT should be 0")
	}
}
