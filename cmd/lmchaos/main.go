// Command lmchaos is the multi-process chaos soak: it builds cmd/lmnode,
// boots a ring of real lmnode OS processes linked by TCP, and drives
// brute-force-verified range queries through the TCP client protocol
// while a churn loop SIGKILLs members and restarts them (see procs.go).
// The faults are real: process death and dead TCP links. The same
// contract over the simulator, under injected loss, duplication and
// churn, is the root package's TestChaosSoak.
//
// The soak's contract is the completeness accounting itself:
//
//   - every result flagged Complete must agree exactly with a
//     brute-force scan of the dataset (a complete range search is
//     exact, no matter what the network did), and
//   - every incomplete result must be honest about the gap: a correct
//     subset of the exact answer.
//
// Any violation exits non-zero. Run it under the race detector:
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
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		objects  = flag.Int("objects", 3000, "synthetic dataset size")
		dim      = flag.Int("dim", 8, "dataset dimensionality")
		queries  = flag.Int("queries", 240, "total queries to issue")
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		seed     = flag.Int64("seed", 1, "random seed")
		churn    = flag.Int("churn", 6, "SIGKILL/restart cycles during the soak")
		procs    = flag.Int("procs", 4, "ring size: this many real lmnode OS processes")
		durable  = flag.Bool("durable", false, "give each member a data dir, publish and delete before every SIGKILL; restarted members must replay their journal (Recovered=true) and every acknowledged mutation must survive, or the soak fails")
		replicas = flag.Int("replicas", 0, "each member keeps this many ring successors current with its mutations")
		killDead = flag.Bool("kill-dead", false, "with -replicas: kill one member without restart and require Complete exact answers while it stays dead")
	)
	flag.Parse()

	if *procs < 1 {
		fmt.Fprintln(os.Stderr, "lmchaos: -procs must be at least 1")
		return 2
	}
	if *killDead && (*procs < 2 || *replicas < 1) {
		fmt.Fprintln(os.Stderr, "lmchaos: -kill-dead needs -procs >= 2 and -replicas >= 1")
		return 2
	}
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
