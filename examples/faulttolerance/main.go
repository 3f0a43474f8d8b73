// Faulttolerance: successor-list replication keeps similarity search
// exact through simultaneous node crashes, and the reliable-delivery
// layer (ack/timeout/retry with successor failover) keeps it exact
// through injected message loss — the fire-and-forget contrast drops
// subqueries and loses matches.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"landmarkdht"
)

func main() {
	p, err := landmarkdht.New(landmarkdht.Options{Nodes: 64, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// A clustered dataset.
	rng := rand.New(rand.NewSource(7))
	data := make([]landmarkdht.Vector, 4000)
	for i := range data {
		base := float64(rng.Intn(4)) * 25
		v := make(landmarkdht.Vector, 10)
		for j := range v {
			v[j] = base + rng.NormFloat64()*3
		}
		data[i] = v
	}
	ix, err := landmarkdht.AddIndex(p,
		landmarkdht.EuclideanSpace("resilient", 10, -20, 120),
		data, landmarkdht.DenseMean,
		landmarkdht.IndexOptions{Landmarks: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Replicate every entry onto the 2 successors of its primary node.
	if err := ix.Replicate(3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors on %d nodes, 3-way replicated\n", ix.Len(), p.Nodes())

	q := data[0]
	baseline, _, trace, err := ix.RangeSearchTraced(q, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbefore crashes: %d matches; query touched %d nodes, %d answer steps, depth %d\n",
		len(baseline), len(trace.Nodes()), trace.Count("answer"), trace.MaxDepth())

	// Kill 8 of 64 nodes at once. No recovery step runs: the replicas
	// on the successors answer in the dead primaries' place.
	crashed := p.Crash(8)
	fmt.Printf("\ncrashed %d nodes (%d remain)\n", crashed, p.Nodes())

	after, stats, trace2, err := ix.RangeSearchTraced(q, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crashes: %d matches (recall %d/%d), %d nodes answered in %v\n",
		len(after), len(after), len(baseline), stats.IndexNodes, stats.MaxLatency)

	if len(after) == len(baseline) {
		fmt.Println("\nno results lost: the first replica of every key became its new successor")
	} else {
		fmt.Printf("\nlost %d results (replication factor exceeded by correlated failures)\n",
			len(baseline)-len(after))
	}
	fmt.Println("\nexecution trace of the post-crash query (first 6 steps):")
	for i, e := range trace2.Events {
		if i >= 6 {
			break
		}
		fmt.Println(" ", e)
	}

	// Part two: a lossy network. The same deployment under 10% message
	// loss, once fire-and-forget and once with the reliability layer
	// (ack, timeout, bounded retransmission with successor failover).
	// Options.Faults is the one way to inject faults: its Drop loses
	// each overlay message with that probability, drawn from the
	// platform's seeded source, so every run loses the same messages.
	fmt.Println("\n--- 10% message loss ---")
	for _, retries := range []int{0, 3} {
		lossy, err := landmarkdht.New(landmarkdht.Options{
			Nodes: 64, Seed: 7, Faults: &landmarkdht.FaultOptions{Drop: 0.10},
			Retry: landmarkdht.RetryConfig{MaxRetries: retries},
		})
		if err != nil {
			log.Fatal(err)
		}
		lx, err := landmarkdht.AddIndex(lossy,
			landmarkdht.EuclideanSpace("resilient", 10, -20, 120),
			data, landmarkdht.DenseMean,
			landmarkdht.IndexOptions{Landmarks: 5})
		if err != nil {
			log.Fatal(err)
		}
		// A batch of queries, so the loss rate has room to bite. Every
		// result now says whether it is exact: Complete results carry
		// the full answer, incomplete ones list how much index space
		// went unanswered.
		total, retrans, incomplete, uncovered := 0, 0, 0, 0
		for i := 0; i < 25; i++ {
			matches, stats, err := lx.RangeSearch(data[i*37], 8)
			if err != nil {
				log.Fatal(err)
			}
			total += len(matches)
			retrans += stats.Retries
			if !stats.Complete {
				incomplete++
				uncovered += stats.UncoveredRegions
			}
		}
		rel := lossy.Reliability()
		mode := "fire-and-forget"
		if retries > 0 {
			mode = fmt.Sprintf("retries (max %d)", retries)
		}
		fmt.Printf("%-16s %d matches over 25 queries, %d retransmissions, %d recovered, %d subqueries lost for good\n",
			mode+":", total, retrans, rel.Recovered, rel.Dropped)
		fmt.Printf("%-16s %d/25 results flagged incomplete (%d uncovered index regions)\n",
			"", incomplete, uncovered)
	}

	// Part three: tail-latency control. A deadline bounds every query's
	// total time — on expiry the query returns what it has, honestly
	// flagged — and hedging re-sends slow subqueries to the successor
	// replica so the deadline is rarely hit.
	fmt.Println("\n--- deadline + hedging under 20% loss ---")
	hedged, err := landmarkdht.New(landmarkdht.Options{
		Nodes: 64, Seed: 7,
		Faults:   &landmarkdht.FaultOptions{Drop: 0.20},
		Retry:    landmarkdht.RetryConfig{MaxRetries: 2},
		Deadline: 20 * time.Second,
		Hedge:    landmarkdht.HedgeConfig{Delay: 2 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	hx, err := landmarkdht.AddIndex(hedged,
		landmarkdht.EuclideanSpace("resilient", 10, -20, 120),
		data, landmarkdht.DenseMean,
		landmarkdht.IndexOptions{Landmarks: 5})
	if err != nil {
		log.Fatal(err)
	}
	if err := hx.Replicate(2); err != nil {
		log.Fatal(err)
	}
	complete := 0
	for i := 0; i < 25; i++ {
		_, stats, err := hx.RangeSearch(data[i*37], 8)
		if err != nil {
			log.Fatal(err)
		}
		if stats.Complete {
			complete++
		}
	}
	rel := hedged.Reliability()
	fmt.Printf("with hedging:     %d/25 results complete, %d hedged subqueries, %d retransmissions\n",
		complete, rel.Hedges, rel.RetriesIssued)
}
