//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures
//lint:file-allow nogoroutine the load generator's clients, the sampler and the signal handler are real goroutines, not engine-owned code

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"landmarkdht/internal/runtime/netrt"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {25, 2}, {95, 4.8}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Op: 1, Parent: 1, Name: "roundtrip", Start: 10, End: 60},
		{ID: 3, Op: 1, Parent: 1, Name: "replay", Start: 50, End: 90}, // overlaps its sibling by 10
		{ID: 4, Op: 1, Parent: 3, Name: "scan", Start: 55, End: 75},
	}
	// op: 100 minus the union [10,90) of its children; replay: 40 minus
	// its child's 20; a grandchild does not count against the root.
	if got, want := selfTimes(spans), []int64{20, 50, 20, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestPinnedPorts(t *testing.T) {
	ports := pinnedPorts(ringSize)
	// The layout every later run is compared on; it moves only if
	// netrt.NodeID does, and then the baseline must be measured again.
	if want := []int{41267, 52268, 26840, 48942}; !reflect.DeepEqual(ports, want) {
		t.Errorf("pinnedPorts = %v, want %v", ports, want)
	}
	for i, p := range ports {
		id := netrt.NodeID("127.0.0.1:" + strconv.Itoa(p))
		target := float64(2*i+1) / float64(2*ringSize)
		if pos := float64(id) / math.Pow(2, 64); math.Abs(pos-target) > 5e-3 {
			t.Errorf("slot %d: port %d sits at ring position %.6f, want %.6f", i, p, pos, target)
		}
	}
}

func TestDiffers(t *testing.T) {
	rate := metricSpec{Name: "ops_per_s", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Bound: 0.25}
	for _, c := range []struct {
		m    metricSpec
		x, y float64
		want bool
	}{
		{rate, 100, 109, false},
		{rate, 100, 89, true},
		{rate, 0, 0, true}, // a reading of 0 is never a match
		{rate, 100, math.NaN(), true},
		{setup, 0.03, 0.12, false}, // under the absolute floor
		{setup, 2, 2.6, true},
	} {
		if got := differs(c.m, c.x, c.y); got != c.want {
			t.Errorf("differs(%s, %v, %v) = %v, want %v", c.m.Name, c.x, c.y, got, c.want)
		}
	}
}

// TestSuite runs all four workloads, end to end and traced, at a
// hundredth of their size on ephemeral ports, and checks the emitted
// result lines against the names BENCHMARK.json lists.
func TestSuite(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		listed = append(listed, w.name)
	}
	if !reflect.DeepEqual(spec.workloadNames(), listed) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the harness runs %v", spec.workloadNames(), listed)
	}
	e := testEnv(t)
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		lines, err := runSuite(e, spec, listed, 7, 0.5, traced)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range listed {
			line := lines[n]
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, attempted %d, failed %d", n, traced, line.Correct, line.Attempted, line.Failed)
			}
			var got, names []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s is %v", n, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", n, name, v.Value)
				}
			}
			for _, m := range want {
				names = append(names, m.Name)
			}
			sort.Strings(got)
			sort.Strings(names)
			if !reflect.DeepEqual(got, names) {
				t.Errorf("%s (traced %v): emitted metrics %v, BENCHMARK.json lists %v", n, traced, got, names)
			}
		}
	}
	// A traced run leaves a span file whose per-operation spans share an
	// id and nest inside their parents.
	data, err := os.ReadFile(filepath.Join(e.workDir, "trace-ring-write-mix-7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span)
	perOp := 0
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.Op == 0 || s.Parent == 0 {
			continue
		}
		perOp++
		p := byID[s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if perOp == 0 {
		t.Error("the trace holds no per-operation child spans")
	}
}

// TestWrongAnswerFails corrupts the expected answers and checks that
// every such operation is counted as failed, not as measured.
func TestWrongAnswerFails(t *testing.T) {
	e := testEnv(t)
	w, _ := workloadByName("ring-selective")
	w = w.scaled(e.scale)
	ops, err := buildOps(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		ops[i].want = append(ops[i].want, netrt.ResultEntry{Obj: int32(w.objects), Dist: 0})
	}
	r, _, err := bootRing(ringOptions{bin: e.bin, workDir: e.workDir, w: w, ephemeral: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	p := runCount(r.clients[0], ops, w, 0, 10, newPublished())
	if p.attempted != 10 || p.failed != 10 || len(p.samples) != 0 || p.firstErr == nil {
		t.Errorf("attempted %d, failed %d, %d latency samples, first error %v; want 10, 10, 0 and an error",
			p.attempted, p.failed, len(p.samples), p.firstErr)
	}
}

var testBin string

func testEnv(t *testing.T) env {
	t.Helper()
	if testBin == "" {
		dir, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			t.Fatal(err)
		}
		if testBin, err = buildNode(dir); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(reapAll)
	return env{bin: testBin, workDir: t.TempDir(), ephemeral: true, scale: 0.01, reps: 1}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testBin != "" {
		_ = os.RemoveAll(filepath.Dir(testBin)) //lint:allow errdrop best-effort cleanup of the test's temp binary
	}
	os.Exit(code)
}

// TestSummarizeScales checks that every time of a run is reported at
// reference speed: on a machine that takes twice the reference time for
// the kernel, times halve, the rate doubles and memory stays.
func TestSummarizeScales(t *testing.T) {
	o := newOutcome()
	rep := repetition{setup: 2, rss: 40, secs: 10, ops: 4, cpuMs: 80,
		queryMs: []float64{6, 6, 6, 6}, kernelMs: []float64{2 * referenceKernelMs}}
	if err := o.summarize([]repetition{rep}); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 1, "rss_mb": 40, "ops_per_s": 0.8, "cpu_ms_per_op": 10, "query_p50_ms": 3, "query_p95_ms": 3}
	if !reflect.DeepEqual(o.metrics, want) {
		t.Errorf("metrics %v, want %v", o.metrics, want)
	}
}
