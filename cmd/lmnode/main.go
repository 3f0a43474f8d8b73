// Command lmnode runs one ring node as a standalone OS process: a
// deployment of the landmark index where the overlay is N processes
// linked over TCP instead of one simulated in-process overlay.
//
// Every process rebuilds the same deterministic corpus from -seed and
// -metric (the peer handshake refuses nodes built from different
// parameters) and serves the slice of it that its ring position owns.
// Start a ring by launching one process with no -join and pointing the
// rest at it:
//
//	lmnode -listen 127.0.0.1:7001
//	lmnode -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//	lmnode -listen 127.0.0.1:7003 -join 127.0.0.1:7001
//
// Each process prints a "ready" line with its bound address and node
// ID, then serves peer and client connections until SIGINT or SIGTERM.
// Query it from another process with landmarkdht.DialNode, or run a
// verified multi-process soak with cmd/lmchaos -procs.
//
// With -data-dir the node journals every online publish and delete it
// accepts as owner to a write-ahead log in that directory before
// acknowledging it, and a restart replays them on top of the corpus it
// rebuilds (the ready line reports recovered=true). Each node needs its
// own directory; a directory written under a different corpus config is
// a startup error.
//
// With -replicas K (same value ring-wide) each node keeps its K ring
// successors current with its mutations — the corpus they build
// themselves — by fan-out, repaired by periodic digest exchange; queries
// for a member that the failure detector marks down are answered exactly
// from the synced copies.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	lm "landmarkdht"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address (node identity derives from it)")
		join      = flag.String("join", "", "comma-separated peer addresses to bootstrap from")
		seed      = flag.Int64("seed", 1, "corpus seed (must match across the ring)")
		metricF   = flag.String("metric", "euclid", "corpus metric: euclid or edit")
		objects   = flag.Int("objects", 0, "corpus size (0 = default)")
		dim       = flag.Int("dim", 0, "vector dimensionality (0 = default)")
		landmarks = flag.Int("landmarks", 0, "landmark count (0 = default)")
		deadline  = flag.Duration("deadline", 0, "per-query deadline (0 = default)")
		dataDir   = flag.String("data-dir", "", "durable state directory (journals online mutations; a restart replays them)")
		replicas  = flag.Int("replicas", 0, "ring successors holding a copy of this node's mutations (same value ring-wide)")
		verbose   = flag.Bool("v", false, "log membership and link events")
	)
	flag.Parse()

	opts := lm.NodeOptions{
		Listen:    *listen,
		Seed:      *seed,
		Metric:    *metricF,
		Objects:   *objects,
		Dim:       *dim,
		Landmarks: *landmarks,
		Deadline:  *deadline,
		DataDir:   *dataDir,
		Replicas:  *replicas,
	}
	for _, j := range strings.Split(*join, ",") {
		if j = strings.TrimSpace(j); j != "" {
			opts.Join = append(opts.Join, j)
		}
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lmnode: "+format+"\n", args...)
		}
	}

	n, err := lm.StartNode(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmnode: %v\n", err)
		return 2
	}
	defer n.Close()

	// The ready line is the process's contract with parents (tests,
	// lmchaos -procs): addr is the bound address to join or dial, and
	// recovered tells a restart-supervisor whether the node replayed a
	// data dir an earlier boot had initialised (true) or started on an
	// empty or absent one (false).
	fmt.Printf("lmnode: ready addr=%s id=%016x metric=%s seed=%d recovered=%v\n",
		n.Addr(), n.ID(), *metricF, *seed, n.Recovered())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("lmnode: %v, shutting down\n", s)
	return 0
}
