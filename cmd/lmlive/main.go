// Command lmlive runs the landmark index over the live concurrent
// runtime: the protocol executes in real time on one executor
// goroutine, every query and result going through the wire codec
// (encoded, charged by its length and decoded again — nothing is
// transported in-process), while client goroutines issue range and kNN
// queries concurrently. It spot-checks every range result against a
// brute-force scan and reports throughput, latency and traffic.
//
// The ring is fault-free and queries carry no deadline, so the run
// exits 1 not only on a brute-force mismatch but on any incomplete
// range result, transport shed or admission rejection: at a load the
// machine sustains, none of them may happen.
//
// Usage:
//
//	lmlive                          # 32 nodes, 4000 objects, 8 clients
//	lmlive -nodes 64 -clients 16 -queries 400
//	lmlive -latency-scale 1         # replay the latency model in real time
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	lm "landmarkdht"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		nodes    = flag.Int("nodes", 32, "overlay size")
		objects  = flag.Int("objects", 4000, "synthetic dataset size")
		dim      = flag.Int("dim", 8, "dataset dimensionality")
		queries  = flag.Int("queries", 200, "total queries to issue")
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		seed     = flag.Int64("seed", 1, "random seed")
		latScale = flag.Float64("latency-scale", 0, "multiply modeled network latency (0 = as fast as possible)")
	)
	flag.Parse()

	p, err := lm.New(lm.Options{
		Nodes:            *nodes,
		Seed:             *seed,
		WireCodec:        true,
		Live:             true,
		LiveLatencyScale: *latScale,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmlive: %v\n", err)
		return 2
	}
	defer p.Close()

	rng := rand.New(rand.NewSource(*seed + 7))
	data := make([]lm.Vector, *objects)
	for i := range data {
		v := make(lm.Vector, *dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		data[i] = v
	}
	space := lm.EuclideanSpace("live-demo", *dim, 0, 1)
	ix, err := lm.AddIndex(p, space, data, lm.DenseMean, lm.IndexOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmlive: %v\n", err)
		return 2
	}
	fmt.Printf("lmlive: %d nodes, %d objects (dim %d), %d clients, latency scale %g\n",
		p.Nodes(), ix.Len(), *dim, *clients, *latScale)

	// The query workload: alternating exact range queries (verified
	// against brute force) and kNN queries. Each client draws its own
	// query points from a per-client seed so the workload is fixed
	// regardless of scheduling.
	const radius = 0.25
	const k = 10
	type stats struct {
		n          int
		totalLat   time.Duration
		maxLat     time.Duration
		mismatch   int
		emptyKNN   int
		resultCnt  int
		ranges     int
		incomplete int
		uncovered  int
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		agg stats
	)
	perClient := *queries / *clients
	if perClient == 0 {
		perClient = 1
	}
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(*seed + 1000 + int64(c)))
			var local stats
			for i := 0; i < perClient; i++ {
				q := make(lm.Vector, *dim)
				for j := range q {
					q[j] = crng.Float64()
				}
				t0 := time.Now()
				if i%2 == 0 {
					matches, st, err := ix.RangeSearch(q, radius)
					if err != nil {
						fmt.Fprintf(os.Stderr, "lmlive: range query: %v\n", err)
						local.mismatch++
						continue
					}
					local.ranges++
					if !st.Complete {
						local.incomplete++
						local.uncovered += st.UncoveredRegions
					} else if !matchesExact(data, q, radius, matches) {
						// Only a complete result promises exactness.
						local.mismatch++
					}
					local.resultCnt += len(matches)
				} else {
					matches, _, err := ix.NearestSearch(q, k, radius)
					if err != nil {
						fmt.Fprintf(os.Stderr, "lmlive: knn query: %v\n", err)
						local.mismatch++
						continue
					}
					if len(matches) == 0 {
						local.emptyKNN++
					}
					local.resultCnt += len(matches)
				}
				lat := time.Since(t0)
				local.n++
				local.totalLat += lat
				if lat > local.maxLat {
					local.maxLat = lat
				}
			}
			mu.Lock()
			agg.n += local.n
			agg.totalLat += local.totalLat
			if local.maxLat > agg.maxLat {
				agg.maxLat = local.maxLat
			}
			agg.mismatch += local.mismatch
			agg.emptyKNN += local.emptyKNN
			agg.resultCnt += local.resultCnt
			agg.ranges += local.ranges
			agg.incomplete += local.incomplete
			agg.uncovered += local.uncovered
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	tr := p.Traffic()
	fmt.Printf("lmlive: %d queries in %v (%.0f qps)\n",
		agg.n, elapsed.Round(time.Millisecond), float64(agg.n)/elapsed.Seconds())
	if agg.n > 0 {
		fmt.Printf("lmlive: mean latency %v, max %v, %.1f results/query\n",
			(agg.totalLat / time.Duration(agg.n)).Round(time.Microsecond),
			agg.maxLat.Round(time.Microsecond),
			float64(agg.resultCnt)/float64(agg.n))
	}
	fmt.Printf("lmlive: overlay traffic %d msgs, %d bytes\n", tr.Messages, tr.Bytes)
	fmt.Printf("lmlive: completeness: %d/%d range results complete (%d incomplete, %d uncovered regions)\n",
		agg.ranges-agg.incomplete, agg.ranges, agg.incomplete, agg.uncovered)
	failures := runFailures(agg.mismatch, agg.incomplete, p.Reliability())
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "lmlive: %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Println("lmlive: all range results complete and verified against brute force, nothing shed")
	return 0
}

// runFailures is the exit decision: every way a fault-free,
// deadline-free run can fall short, each with its count. An empty
// result means exit 0.
func runFailures(mismatch, incomplete int, rel lm.ReliabilityStats) []string {
	var out []string
	if mismatch > 0 {
		out = append(out, fmt.Sprintf("%d range queries disagreed with brute force", mismatch))
	}
	if incomplete > 0 {
		out = append(out, fmt.Sprintf("%d range results came back incomplete on a fault-free ring", incomplete))
	}
	if rel.TransportShed > 0 {
		out = append(out, fmt.Sprintf("%d deliveries shed by the transport inbox", rel.TransportShed))
	}
	if rel.AdmissionRejected > 0 {
		out = append(out, fmt.Sprintf("%d queries rejected at admission", rel.AdmissionRejected))
	}
	return out
}

// matchesExact verifies a range result against a brute-force scan.
func matchesExact(data []lm.Vector, q lm.Vector, r float64, matches []lm.Match[lm.Vector]) bool {
	var want []int
	for i, v := range data {
		if dist(q, v) <= r {
			want = append(want, i)
		}
	}
	got := make([]int, len(matches))
	for i, m := range matches {
		got[i] = m.ID
	}
	sort.Ints(got)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func dist(a, b lm.Vector) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
