// Command lmchaos is the chaos soak: it runs the landmark index over
// the live concurrent runtime under sustained fault injection — overlay
// message loss and duplication, and membership churn (one-at-a-time
// crashes and joins) — while concurrent clients issue range queries
// with retries, hedging and a per-query deadline. The in-process
// runtime has no transport to break; with -procs the members are real
// processes and the faults are real too (SIGKILL, dead TCP links).
//
// The soak's contract is the completeness accounting itself:
//
//   - every result flagged Complete must agree exactly with a
//     brute-force scan of the dataset (a complete range search is
//     exact, no matter what the network did), and
//   - every incomplete result must be honest about the gap: a correct
//     subset of the exact answer, with DroppedSubqueries or
//     UncoveredRegions non-zero.
//
// Any violation exits non-zero. Run it under the race detector:
//
//	go run -race ./cmd/lmchaos
//	go run -race ./cmd/lmchaos -nodes 48 -queries 400 -drop 0.1
//
// With -procs N the soak instead runs over N real lmnode OS processes
// linked by TCP, with SIGKILL-and-restart churn (see procs.go):
//
//	go run -race ./cmd/lmchaos -procs 8 -objects 1024 -dim 4
//
// With -durable every process journals its online mutations to a data
// dir; the soak publishes and deletes before each SIGKILL, and every
// acknowledged mutation must still hold after the last restart:
//
//	go run -race ./cmd/lmchaos -procs 4 -objects 1024 -dim 4 -durable
//
// With -replicas K every process keeps its K ring successors current
// with its mutations; adding -kill-dead appends a kill-without-restart
// phase that publishes into one member's arc, SIGKILLs it and leaves it
// dead while verifying that every query stays Complete and equal to
// brute force plus the acknowledged publishes:
//
//	go run -race ./cmd/lmchaos -procs 4 -replicas 1 -kill-dead
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
		objects  = flag.Int("objects", 3000, "synthetic dataset size")
		dim      = flag.Int("dim", 8, "dataset dimensionality")
		queries  = flag.Int("queries", 240, "total queries to issue")
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		seed     = flag.Int64("seed", 1, "random seed")
		churn    = flag.Int("churn", 6, "crash/join cycles during the soak")
		drop     = flag.Float64("drop", 0.05, "overlay message loss probability")
		dup      = flag.Float64("dup", 0.02, "query/ack duplication probability")
		procs    = flag.Int("procs", 0, "run the soak over this many real lmnode OS processes instead (SIGKILL churn; see procs.go)")
		durable  = flag.Bool("durable", false, "with -procs: give each member a data dir, publish and delete before every SIGKILL; restarted members must replay their journal (Recovered=true) and every acknowledged mutation must survive, or the soak fails")
		replicas = flag.Int("replicas", 0, "with -procs: each member keeps this many ring successors current with its mutations")
		killDead = flag.Bool("kill-dead", false, "with -procs and -replicas: kill one member without restart and require Complete exact answers while it stays dead")
		qps      = flag.Float64("qps", 0, "fixed offered load in queries per second across all clients (0 = closed loop)")
		maxAct   = flag.Int("max-active", 0, "admission cap on concurrent queries (0 = unlimited)")
	)
	flag.Parse()

	if *killDead && (*procs < 2 || *replicas < 1) {
		fmt.Fprintln(os.Stderr, "lmchaos: -kill-dead needs -procs >= 2 and -replicas >= 1")
		return 2
	}
	if *procs > 0 {
		return realProcs(procOpts{
			n:        *procs,
			seed:     *seed,
			queries:  *queries,
			clients:  *clients,
			churn:    *churn,
			objects:  *objects,
			dim:      *dim,
			durable:  *durable,
			replicas: *replicas,
			killDead: *killDead,
		})
	}

	p, err := lm.New(lm.Options{
		Nodes:     *nodes,
		Seed:      *seed,
		WireCodec: true,
		Live:      true,
		Faults: &lm.FaultOptions{
			Drop:      *drop,
			Duplicate: *dup,
		},
		Retry:            lm.RetryConfig{MaxRetries: 3},
		Deadline:         10 * time.Second,
		Hedge:            lm.HedgeConfig{Delay: 250 * time.Millisecond},
		MaxActiveQueries: *maxAct,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmchaos: %v\n", err)
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
	space := lm.EuclideanSpace("chaos", *dim, 0, 1)
	ix, err := lm.AddIndex(p, space, data, lm.DenseMean, lm.IndexOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmchaos: %v\n", err)
		return 2
	}
	// Three copies of every entry: one-at-a-time churn never takes a
	// region's whole replica set, so complete answers stay available
	// throughout the soak.
	if err := ix.Replicate(3); err != nil {
		fmt.Fprintf(os.Stderr, "lmchaos: %v\n", err)
		return 2
	}
	fmt.Printf("lmchaos: %d nodes, %d objects (dim %d), %d clients, 3-way replicated\n",
		p.Nodes(), ix.Len(), *dim, *clients)
	fmt.Printf("lmchaos: faults: drop %.0f%%, dup %.0f%%, %d crash/join cycles\n",
		*drop*100, *dup*100, *churn)

	// The churn goroutine crashes one node and joins one replacement
	// per cycle, spread over the soak. Membership changes run on the
	// protocol executor, serialized with query routing; replica repair
	// completes before the next message routes.
	churnDone := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; i < *churn; i++ {
			select {
			case <-churnDone:
				return
			case <-time.After(400 * time.Millisecond):
			}
			p.Crash(1)
			select {
			case <-churnDone:
				return
			case <-time.After(400 * time.Millisecond):
			}
			p.Join(1)
		}
	}()

	const radius = 0.25
	type stats struct {
		n          int
		complete   int
		incomplete int
		failures   int
		resultCnt  int
		totalLat   time.Duration
		maxLat     time.Duration
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
	// With -qps the soak switches from closed-loop (issue as fast as
	// answers arrive) to a fixed offered rate: each client paces its
	// queries on a fixed schedule, staggered across clients, and only
	// skips sleeping when it has fallen behind. The exactness contract
	// below is unchanged — overload surfaces as honest incompletes and
	// admission rejections, never as wrong answers.
	var clientInterval time.Duration
	if *qps > 0 {
		clientInterval = time.Duration(float64(*clients) * float64(time.Second) / *qps)
	}
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(*seed + 1000 + int64(c)))
			var local stats
			for i := 0; i < perClient; i++ {
				if clientInterval > 0 {
					offset := clientInterval * time.Duration(c) / time.Duration(*clients)
					next := start.Add(time.Duration(i)*clientInterval + offset)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				}
				q := make(lm.Vector, *dim)
				for j := range q {
					q[j] = crng.Float64()
				}
				t0 := time.Now()
				matches, st, err := ix.RangeSearch(q, radius)
				if err != nil {
					fmt.Fprintf(os.Stderr, "lmchaos: client %d query %d: %v\n", c, i, err)
					local.failures++
					continue
				}
				lat := time.Since(t0)
				local.n++
				local.totalLat += lat
				if lat > local.maxLat {
					local.maxLat = lat
				}
				local.resultCnt += len(matches)
				want := bruteForce(data, q, radius)
				if st.Complete {
					local.complete++
					if !sameIDs(matches, want) {
						fmt.Fprintf(os.Stderr,
							"lmchaos: FAIL: complete result disagrees with brute force (%d got, %d want)\n",
							len(matches), len(want))
						local.failures++
					}
				} else {
					local.incomplete++
					if st.DroppedSubqueries == 0 && st.UncoveredRegions == 0 {
						fmt.Fprintf(os.Stderr,
							"lmchaos: FAIL: incomplete result with no dropped subqueries and no uncovered regions\n")
						local.failures++
					}
					if !subsetIDs(matches, want) {
						fmt.Fprintf(os.Stderr,
							"lmchaos: FAIL: incomplete result is not a subset of the exact answer\n")
						local.failures++
					}
				}
			}
			mu.Lock()
			agg.n += local.n
			agg.complete += local.complete
			agg.incomplete += local.incomplete
			agg.failures += local.failures
			agg.resultCnt += local.resultCnt
			agg.totalLat += local.totalLat
			if local.maxLat > agg.maxLat {
				agg.maxLat = local.maxLat
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(churnDone)
	churnWG.Wait()
	elapsed := time.Since(start)

	rel := p.Reliability()
	fs := p.Faults()
	tr := p.Traffic()
	if *qps > 0 {
		fmt.Printf("lmchaos: offered %.0f qps fixed (open loop)\n", *qps)
	}
	fmt.Printf("lmchaos: %d queries in %v (%.0f qps), %.1f results/query\n",
		agg.n, elapsed.Round(time.Millisecond), float64(agg.n)/elapsed.Seconds(),
		float64(agg.resultCnt)/float64(max(agg.n, 1)))
	fmt.Printf("lmchaos: traffic: %d messages, %d bytes\n", tr.Messages, tr.Bytes)
	if agg.n > 0 {
		fmt.Printf("lmchaos: mean latency %v, max %v\n",
			(agg.totalLat / time.Duration(agg.n)).Round(time.Microsecond),
			agg.maxLat.Round(time.Microsecond))
	}
	fmt.Printf("lmchaos: %d complete (all verified exact), %d incomplete (all honestly flagged)\n",
		agg.complete, agg.incomplete)
	fmt.Printf("lmchaos: injected: %d msgs dropped, %d duplicated\n",
		fs.MessagesDropped, fs.MessagesDuplicated)
	fmt.Printf("lmchaos: recovery: %d retransmissions, %d recovered, %d hedges, %d subqueries lost for good\n",
		rel.RetriesIssued, rel.Recovered, rel.Hedges, rel.Dropped)
	fmt.Printf("lmchaos: backpressure: %d admission rejections, %d transport sheds\n",
		rel.AdmissionRejected, rel.TransportShed)

	if fs.MessagesDropped+fs.MessagesDuplicated == 0 && (*drop > 0 || *dup > 0) {
		fmt.Fprintln(os.Stderr, "lmchaos: FAIL: fault knobs set but nothing was injected")
		return 1
	}
	if agg.failures > 0 {
		fmt.Fprintf(os.Stderr, "lmchaos: FAIL: %d completeness violations\n", agg.failures)
		return 1
	}
	fmt.Println("lmchaos: PASS: completeness contract held under chaos")
	return 0
}

// bruteForce returns the sorted ids of every object within r of q.
func bruteForce(data []lm.Vector, q lm.Vector, r float64) []int {
	var want []int
	for i, v := range data {
		if dist(q, v) <= r {
			want = append(want, i)
		}
	}
	return want
}

// sameIDs reports whether the matches cover exactly the wanted ids.
func sameIDs(matches []lm.Match[lm.Vector], want []int) bool {
	if len(matches) != len(want) {
		return false
	}
	got := make([]int, len(matches))
	for i, m := range matches {
		got[i] = m.ID
	}
	sort.Ints(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// subsetIDs reports whether every match id is among the wanted ids.
func subsetIDs(matches []lm.Match[lm.Vector], want []int) bool {
	in := make(map[int]bool, len(want))
	for _, id := range want {
		in[id] = true
	}
	for _, m := range matches {
		if !in[m.ID] {
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
