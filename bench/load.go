//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures
//lint:file-allow nogoroutine the load generator's clients, the sampler and the signal handler are real goroutines, not engine-owned code

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"landmarkdht/internal/metric"
	"landmarkdht/internal/runtime/netrt"
)

// firstPublishID is the first object id the benchmark publishes under:
// far above any boot corpus, so a result id tells which kind it is.
const firstPublishID = 1 << 24

// op is one operation of a workload's seeded sequence: a range query
// with its brute-force answer over the boot corpus, or a publish of a
// fresh vector.
type op struct {
	publish bool
	vec     metric.Vector
	obj     []byte              // vec in the client protocol's encoding
	want    []netrt.ResultEntry // queries only
}

func randomVector(rng *rand.Rand, dim int) metric.Vector {
	v := make(metric.Vector, dim)
	for j := range v {
		v[j] = rng.Float64()
	}
	return v
}

// buildOps generates the workload's operation sequence from seed and
// computes every query's expected answer, before any timing starts, so
// the generator does not compete with the ring for the cores later.
func buildOps(w workload, seed int64) ([]op, error) {
	ds, err := netrt.BuildDataset(w.data())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, w.pool)
	for i := range ops {
		o := &ops[i]
		o.publish = rng.Float64() < w.publishShare
		o.vec = randomVector(rng, w.dim)
		o.obj = netrt.EncodeVectorQuery(o.vec)
		if !o.publish {
			if o.want, err = ds.BruteForce(o.obj, w.radius); err != nil {
				return nil, err
			}
		}
	}
	return ops, nil
}

// published records every vector the run has tried to publish, keyed by
// id, and which of them were acknowledged.
type published struct {
	sync.Mutex
	vecs  map[int32]metric.Vector
	acked map[int32]bool
}

func newPublished() *published {
	return &published{vecs: make(map[int32]metric.Vector), acked: make(map[int32]bool)}
}

// checkQuery verifies one answer: complete, boot-corpus entries exactly
// the brute-force answer, and every other entry a vector this run
// published that really lies within the radius.
func checkQuery(o *op, radius float64, res netrt.QueryOutcome, pub *published) error {
	if !res.Complete {
		return fmt.Errorf("incomplete answer (%d shards dropped)", res.Dropped)
	}
	j := 0
	for _, e := range res.Entries {
		if e.Obj >= firstPublishID {
			pub.Lock()
			v, ok := pub.vecs[e.Obj]
			pub.Unlock()
			if !ok {
				return fmt.Errorf("entry %d was never published", e.Obj)
			}
			if d := metric.L2(o.vec, v); d > radius || math.Abs(d-e.Dist) > 1e-9 {
				return fmt.Errorf("published entry %d at distance %g reported as %g (radius %g)", e.Obj, d, e.Dist, radius)
			}
			continue
		}
		if j >= len(o.want) || o.want[j].Obj != e.Obj || math.Abs(o.want[j].Dist-e.Dist) > 1e-9 {
			return fmt.Errorf("entry %d not in the brute-force answer at position %d", e.Obj, j)
		}
		j++
	}
	if j != len(o.want) {
		return fmt.Errorf("answer holds %d of %d brute-force entries", j, len(o.want))
	}
	return nil
}

// sample is one verified operation: how long the client waited for its
// reply.
type sample struct {
	ms      float64
	publish bool
}

// phase is the outcome of one closed-loop span.
type phase struct {
	attempted int
	failed    int
	firstErr  error
	samples   []sample
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.samples = append(p.samples, q.samples...)
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// latencies returns the phase's query and publish latencies.
func (p *phase) latencies() (queryMs, publishMs []float64) {
	for _, s := range p.samples {
		if s.publish {
			publishMs = append(publishMs, s.ms)
		} else {
			queryMs = append(queryMs, s.ms)
		}
	}
	return queryMs, publishMs
}

// runLoop drives the ring closed-loop until stop is set: each client
// sends its next operation only after the previous reply, client c
// taking operations c, c+n, c+2n, … of the sequence (cycling when it
// runs out) starting at from. It returns the outcome and the next
// unused sequence index.
func runLoop(clients []*netrt.Client, ops []op, w workload, from int, stop *atomic.Bool, pub *published) (phase, int) {
	parts := make([]phase, len(clients))
	next := make([]int, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := from + c
			for ; !stop.Load(); i += len(clients) {
				doOp(clients[c], &ops[i%len(ops)], w, int32(firstPublishID+i), &parts[c], pub)
			}
			next[c] = i
		}()
	}
	wg.Wait()
	var total phase
	for c := range parts {
		total.merge(&parts[c])
		from = max(from, next[c]-c)
	}
	return total, from
}

// runCount drives one client through exactly n operations from index
// from, for passes whose counts must repeat exactly.
func runCount(client *netrt.Client, ops []op, w workload, from, n int, pub *published) phase {
	var p phase
	for i := from; i < from+n; i++ {
		doOp(client, &ops[i%len(ops)], w, int32(firstPublishID+i), &p, pub)
	}
	return p
}

// doOp performs and verifies one operation. An operation fails if it
// errors, times out, comes back incomplete or disagrees with brute
// force.
func doOp(c *netrt.Client, o *op, w workload, id int32, p *phase, pub *published) {
	p.attempted++
	t := time.Now()
	var err error
	if o.publish {
		pub.Lock()
		pub.vecs[id] = o.vec
		pub.Unlock()
		if err = c.Publish(id, o.obj, opTimeout); err == nil {
			p.samples = append(p.samples, sample{ms: ms(time.Since(t)), publish: true})
			pub.Lock()
			pub.acked[id] = true
			pub.Unlock()
		}
	} else {
		var res netrt.QueryOutcome
		res, err = c.Query(o.obj, w.radius, opTimeout)
		wait := time.Since(t)
		if err == nil {
			err = checkQuery(o, w.radius, res, pub)
		}
		if err == nil {
			p.samples = append(p.samples, sample{ms: ms(wait)})
		}
	}
	if err != nil {
		p.fail(fmt.Errorf("operation %d: %w", id-firstPublishID, err))
	}
}

// stopAfter returns a flag that sets itself after d.
func stopAfter(d time.Duration) *atomic.Bool {
	var stop atomic.Bool
	time.AfterFunc(d, func() { stop.Store(true) })
	return &stop
}

// checkPublished asks the ring for every acknowledged publish with a
// radius-0 query at its own vector; each must come back.
func checkPublished(clients []*netrt.Client, pub *published) (attempted, failed int, firstErr error) {
	pub.Lock()
	ids := make([]int32, 0, len(pub.acked))
	for id := range pub.acked {
		ids = append(ids, id)
	}
	pub.Unlock()
	errs := make([]error, len(clients))
	fails := make([]int, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ids); i += len(clients) {
				id := ids[i]
				res, err := clients[c].Query(netrt.EncodeVectorQuery(pub.vecs[id]), 0, opTimeout)
				found := false
				for _, e := range res.Entries {
					found = found || e.Obj == id
				}
				if err == nil && (!res.Complete || !found) {
					err = fmt.Errorf("acknowledged publish %d is not returned by a radius-0 query at its vector", id)
				}
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = err
					}
				}
			}
		}()
	}
	wg.Wait()
	for c := range clients {
		failed += fails[c]
		if firstErr == nil {
			firstErr = errs[c]
		}
	}
	return len(ids), failed, firstErr
}
