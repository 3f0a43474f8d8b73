package main

// The chaos soak over real OS processes. It builds cmd/lmnode, boots a
// ring of N processes linked over localhost TCP, and drives
// brute-force-verified range queries through the TCP client protocol
// while a churn loop SIGKILLs ring members mid-soak and restarts them on
// the same address. Complete results must match a brute-force scan
// exactly, incomplete ones must be honest subsets, and after churn ends
// every member must again serve Complete ∧ exact answers. The injected
// fault here is process death itself; frame-drop/conn-kill faults are
// NodeOptions.Faults (see runtime.LinkFaults).
//
// With -durable every member journals to a data dir and the soak also
// checks the one thing a restart cannot re-derive (soakMuts): it
// publishes fresh vectors and deletes a boot id before every SIGKILL,
// and after the last restart every acknowledged one must still hold.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"landmarkdht/internal/runtime/netrt"
)

// procOpts carries the soak's flags.
type procOpts struct {
	n        int
	seed     int64
	queries  int
	clients  int
	churn    int
	objects  int
	dim      int
	durable  bool
	replicas int
	killDead bool
}

// ringProc is one lmnode OS process pinned to a ring slot. The slot's
// address never changes: a restarted process resumes the same ring
// identity.
type ringProc struct {
	cmd *exec.Cmd
}

// procRing owns the process table. The churn loop replaces entries
// while query workers read addresses, hence the lock.
type procRing struct {
	bin      string
	args     []string // corpus args shared by every member
	dataDirs []string // per-slot durable dirs, nil when -durable is off

	mu    sync.Mutex
	procs []*ringProc
}

func realProcs(o procOpts) int {
	tmp, err := os.MkdirTemp("", "lmchaos-procs-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmchaos: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp) //lint:allow errdrop best-effort cleanup of the soak's temp dir at exit

	ring := &procRing{
		bin: filepath.Join(tmp, "lmnode"),
		args: []string{
			"-seed", strconv.FormatInt(o.seed, 10),
			"-metric", "euclid",
			"-objects", strconv.Itoa(o.objects),
			"-dim", strconv.Itoa(o.dim),
			"-replicas", strconv.Itoa(o.replicas),
		},
		procs: make([]*ringProc, o.n),
	}
	if o.durable {
		ring.dataDirs = make([]string, o.n)
		for i := range ring.dataDirs {
			ring.dataDirs[i] = filepath.Join(tmp, fmt.Sprintf("data-%d", i))
		}
	}
	defer ring.killAll()

	buildArgs := []string{"build"}
	if raceBuild {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", ring.bin, "landmarkdht/cmd/lmnode")
	build := exec.Command("go", buildArgs...)
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "lmchaos: build lmnode: %v\n%s", err, out)
		return 2
	}

	// Reserve one localhost port per slot so every member has a stable
	// address before any process starts: restarts reuse the slot's
	// address, which is the node's ring identity.
	addrs := make([]string, o.n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmchaos: reserve port: %v\n", err)
			return 2
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close() //lint:allow errdrop port-reservation probe: the listener existed only to pick a free port
	}
	for i, addr := range addrs {
		join := ""
		if i > 0 {
			join = addrs[0]
		}
		p, err := ring.spawn(i, addr, join)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmchaos: start member %d: %v\n", i, err)
			return 2
		}
		ring.set(i, p)
	}
	fmt.Printf("lmchaos: %d lmnode processes up (race build: %v, durable: %v), %d objects (dim %d)\n",
		o.n, raceBuild, o.durable, o.objects, o.dim)

	data := netrt.DataConfig{Metric: "euclid", Seed: o.seed, Objects: o.objects, Dim: o.dim}
	ds, err := netrt.BuildDataset(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmchaos: %v\n", err)
		return 2
	}

	var muts *soakMuts // nil unless -durable
	if o.durable {
		muts = newSoakMuts(o, ds)
	}

	// Converge: every member must see the full ring before the soak.
	for i := 0; i < o.n; i++ {
		if err := waitMembers(addrs[i], o.n, 30*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "lmchaos: member %d: %v\n", i, err)
			return 2
		}
	}
	fmt.Printf("lmchaos: ring converged: all %d members see %d members\n", o.n, o.n)

	// Churn loop: SIGKILL a random member, leave it dead for a window,
	// restart it on the same address joined to a survivor. Query
	// workers run until the cycles are done, so every kill lands in
	// the middle of live query traffic.
	churnOver := make(chan struct{})
	churnErr := make(chan error, 1)
	kills := 0
	go func() {
		defer close(churnOver)
		crng := rand.New(rand.NewSource(o.seed + 41))
		for i := 0; i < o.churn; i++ {
			time.Sleep(500 * time.Millisecond)
			victim := crng.Intn(o.n)
			if muts != nil {
				if err := muts.mutate(addrs[crng.Intn(o.n)], o.n, i, crng); err != nil {
					churnErr <- fmt.Errorf("mutations before kill %d: %w", i, err)
					return
				}
			}
			ring.kill(victim)
			kills++
			fmt.Printf("lmchaos: SIGKILLed member %d (%s)\n", victim, addrs[victim])
			time.Sleep(500 * time.Millisecond)
			join := addrs[(victim+1)%o.n]
			p, err := ring.spawn(victim, addrs[victim], join)
			if err != nil {
				churnErr <- fmt.Errorf("restart member %d: %w", victim, err)
				return
			}
			ring.set(victim, p)
			if o.durable {
				// The restarted member must have found the directory its
				// last incarnation journaled to and replayed it; whether
				// what it acknowledged is in there is checked once churn
				// is over (soakMuts.verify).
				if err := assertRecovered(addrs[victim], 15*time.Second); err != nil {
					churnErr <- fmt.Errorf("member %d restarted without replaying its data dir: %w", victim, err)
					return
				}
				fmt.Printf("lmchaos: restarted member %d on %s (journal replayed)\n", victim, addrs[victim])
			} else {
				fmt.Printf("lmchaos: restarted member %d on %s\n", victim, addrs[victim])
			}
		}
	}()

	// Query workers: each keeps a client to one slot, redialing when a
	// kill takes its connection down, and verifies every answer. A
	// worker runs at least its share of -queries and keeps going until
	// churn has finished, so the soak always overlaps the kills.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		nDone    int
		complete int
		failures int
	)
	perClient := o.queries / o.clients
	if perClient == 0 {
		perClient = 1
	}
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(o.seed + 2000 + int64(c)))
			addr := addrs[c%o.n]
			var cl *netrt.Client
			defer func() {
				if cl != nil {
					cl.Close()
				}
			}()
			var local struct{ n, complete, failures int }
		soak:
			for i := 0; ; i++ {
				if i >= perClient {
					select {
					case <-churnOver:
						break soak
					default:
					}
				}
				if cl == nil {
					var derr error
					cl, derr = dialRetry(addr, 15*time.Second)
					if derr != nil {
						// The slot stayed dead past churn: a soak
						// failure, not an honest fault.
						local.failures++
						break soak
					}
				}
				qobj := ds.RandomQuery(crng)
				r := 0.6 + 0.5*crng.Float64()
				out, err := cl.Query(qobj, r, 15*time.Second)
				if err != nil {
					// The member died mid-query (churn). Drop the
					// connection and redial: process death is the
					// injected fault, not a contract violation.
					cl.Close()
					cl = nil
					continue
				}
				local.n++
				want, err := ds.BruteForce(qobj, r)
				if err != nil {
					local.failures++
					continue
				}
				got, want := muts.stable(out.Entries), muts.stable(want)
				if out.Complete {
					local.complete++
					if !sameEntries(got, want) {
						fmt.Fprintf(os.Stderr,
							"lmchaos: FAIL: complete result disagrees with brute force (%d got, %d want)\n",
							len(got), len(want))
						local.failures++
					}
				} else if !subsetEntries(got, want) {
					fmt.Fprintln(os.Stderr,
						"lmchaos: FAIL: incomplete result is not a subset of the exact answer")
					local.failures++
				}
			}
			mu.Lock()
			nDone += local.n
			complete += local.complete
			failures += local.failures
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	<-churnOver
	select {
	case err := <-churnErr:
		fmt.Fprintf(os.Stderr, "lmchaos: FAIL: %v\n", err)
		return 1
	default:
	}
	elapsed := time.Since(start)
	fmt.Printf("lmchaos: %d verified queries in %v (%d complete-and-exact, %d honest-incomplete, %d SIGKILLs)\n",
		nDone, elapsed.Round(time.Millisecond), complete, nDone-complete, kills)
	if o.churn > 0 && kills == 0 {
		fmt.Fprintln(os.Stderr, "lmchaos: FAIL: churn requested but no member was killed")
		return 1
	}

	// Recovery: with churn over, every member must serve Complete ∧
	// exact again — the ring healed, links redialed, views regossiped.
	rng := rand.New(rand.NewSource(o.seed + 77))
	for i := 0; i < o.n; i++ {
		if err := waitRecovered(addrs[i], ds, muts, nil, rng, 60*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "lmchaos: FAIL: member %d never recovered: %v\n", i, err)
			return 1
		}
	}
	fmt.Printf("lmchaos: recovery verified: all %d members serve complete exact answers\n", o.n)

	if muts != nil {
		if err := muts.verify(addrs, rng); err != nil {
			fmt.Fprintf(os.Stderr, "lmchaos: FAIL: durable mutations: %v\n", err)
			return 1
		}
		fmt.Printf("lmchaos: durable mutations: %d publishes and %d deletes acknowledged before a SIGKILL, all verified after the last restart\n",
			len(muts.pubs), len(muts.deleted))
	}

	if o.killDead {
		if err := killDeadPhase(o, ring, addrs, ds, muts); err != nil {
			fmt.Fprintf(os.Stderr, "lmchaos: FAIL: kill-dead: %v\n", err)
			return 1
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "lmchaos: FAIL: %d completeness violations\n", failures)
		return 1
	}
	if complete == 0 {
		fmt.Fprintln(os.Stderr, "lmchaos: FAIL: no query completed during the soak")
		return 1
	}
	fmt.Println("lmchaos: PASS: multi-process completeness contract held under SIGKILL churn")
	return 0
}

// killDeadPhase is the availability soak: SIGKILL one member and leave
// it dead. Before the kill it publishes through a survivor until the
// victim holds one of those publishes as owner — a replica copy is its
// owner's mutations (the corpus every member builds itself), so without
// one the phase would check an empty copy — and waits one anti-entropy
// period past the acks. Once every survivor's failure detector marks the
// victim down, every query must still come back Complete and equal to
// brute force plus the acknowledged publishes within its radius,
// answered from the victim's replica copy. Any regression fails the soak.
func killDeadPhase(o procOpts, ring *procRing, addrs []string, ds *netrt.Dataset, muts *soakMuts) error {
	n := len(addrs)
	wantSynced := o.replicas
	if wantSynced > n-1 {
		wantSynced = n - 1
	}
	for i, addr := range addrs {
		if err := waitSyncedOwners(addr, wantSynced, 60*time.Second); err != nil {
			return fmt.Errorf("member %d (%s) never synced its replica copies: %w", i, addr, err)
		}
	}
	fmt.Printf("lmchaos: kill-dead: every member holds %d synced replica copies\n", wantSynced)

	// The victim is the member owning the most of the corpus: random
	// publishes land in its arc soonest.
	victim, infos := 0, make([]netrt.Info, n)
	for i, addr := range addrs {
		var err error
		if infos[i], err = infoOf(addr); err != nil {
			return fmt.Errorf("info from member %d (%s): %w", i, addr, err)
		}
		if infos[i].Store > infos[victim].Store {
			victim = i
		}
	}
	survivors := make([]int, 0, n-1)
	for i := range addrs {
		if i != victim {
			survivors = append(survivors, i)
		}
	}
	rng := rand.New(rand.NewSource(o.seed + 93))
	pubs, err := publishInto(addrs[survivors[0]], addrs[victim], infos[victim].Extras, ds, rng)
	if err != nil {
		return err
	}
	time.Sleep(antiEntropyPeriod)
	fmt.Printf("lmchaos: kill-dead: %d publishes acknowledged, the last in the victim's arc\n", len(pubs))

	victimID := netrt.NodeID(addrs[victim])
	ring.kill(victim)
	fmt.Printf("lmchaos: kill-dead: SIGKILLed member %d (%s, node %016x) — staying dead\n",
		victim, addrs[victim], victimID)
	for _, i := range survivors {
		if err := waitDown(addrs[i], victimID, true, 60*time.Second); err != nil {
			return fmt.Errorf("member %d (%s) never marked node %016x down: %w", i, addrs[i], victimID, err)
		}
	}
	fmt.Printf("lmchaos: kill-dead: all %d survivors marked the victim down\n", len(survivors))

	cls := make([]*netrt.Client, len(survivors))
	for j, i := range survivors {
		cl, err := dialRetry(addrs[i], 10*time.Second)
		if err != nil {
			return fmt.Errorf("dial survivor %d (%s): %w", i, addrs[i], err)
		}
		defer cl.Close()
		cls[j] = cl
	}

	const deadQueries = 40
	for q := 0; q < deadQueries; q++ {
		j := q % len(cls)
		qobj := ds.RandomQuery(rng)
		r := 0.6 + 0.5*rng.Float64()
		out, err := cls[j].Query(qobj, r, 15*time.Second)
		if err != nil {
			return fmt.Errorf("query %d on member %d with the victim dead: %w", q, survivors[j], err)
		}
		if !out.Complete {
			return fmt.Errorf("query %d on member %d came back incomplete (dropped %d) while the victim was dead — availability regression",
				q, survivors[j], out.Dropped)
		}
		want, err := expected(ds, muts, pubs, qobj, r)
		if err != nil {
			return err
		}
		if got := muts.stable(out.Entries); !sameEntries(got, want) {
			return fmt.Errorf("query %d on member %d: complete failover answer disagrees with brute force and the publishes (%d got, %d want)",
				q, survivors[j], len(got), len(want))
		}
	}
	fmt.Printf("lmchaos: kill-dead: %d queries complete-and-exact with a dead member\n", deadQueries)

	// Bring the victim back so the soak exits with a whole ring.
	p, err := ring.spawn(victim, addrs[victim], addrs[survivors[0]])
	if err != nil {
		return fmt.Errorf("restart victim: %w", err)
	}
	ring.set(victim, p)
	// Until it has learned the ring the victim answers alone, from a view
	// of one, and until the survivors see it up they answer its arc from
	// their copy; and without -durable the restart lost what it owned:
	// the last publish, the one that landed in its arc.
	if err := waitMembers(addrs[victim], n, 30*time.Second); err != nil {
		return fmt.Errorf("victim never rejoined: %w", err)
	}
	for _, i := range survivors {
		if err := waitDown(addrs[i], victimID, false, 60*time.Second); err != nil {
			return fmt.Errorf("member %d (%s) never saw node %016x up again: %w", i, addrs[i], victimID, err)
		}
	}
	kept := pubs[:len(pubs)-1]
	if ring.dataDirs != nil {
		if err := assertRecovered(addrs[victim], 15*time.Second); err != nil {
			return fmt.Errorf("victim restarted without replaying its data dir: %w", err)
		}
		kept = pubs
	}
	if err := waitRecovered(addrs[victim], ds, muts, kept, rng, 60*time.Second); err != nil {
		return fmt.Errorf("victim never healed after restart: %w", err)
	}
	fmt.Println("lmchaos: kill-dead: victim restarted and healed")
	return nil
}

const (
	// deadBase is the first id the kill-dead phase publishes under:
	// above any corpus the soak builds and below pubBase, so that
	// soakMuts.stable keeps them in every comparison.
	deadBase = pubBase / 2
	// deadPublishes bounds the publishes the phase makes to land one in
	// the victim's arc, which holds the largest share of the corpus: at
	// least a quarter on the four-member rings CI runs.
	deadPublishes = 64
	// antiEntropyPeriod is lmnode's, netrt.Config's default.
	antiEntropyPeriod = time.Second
)

// publishInto publishes fresh vectors through the member at via until
// the member at owner reports more published entries than had, and
// returns the acknowledged publishes.
func publishInto(via, owner string, had int, ds *netrt.Dataset, rng *rand.Rand) ([]soakPub, error) {
	cl, err := dialRetry(via, 15*time.Second)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var pubs []soakPub
	for i := int32(0); i < deadPublishes; i++ {
		p := soakPub{id: deadBase + i, obj: ds.RandomQuery(rng)}
		if err := cl.Publish(p.id, p.obj, 10*time.Second); err != nil {
			return nil, fmt.Errorf("publish %d: %w", p.id, err)
		}
		pubs = append(pubs, p)
		info, err := infoOf(owner)
		if err != nil {
			return nil, err
		}
		if info.Extras > had {
			return pubs, nil
		}
	}
	return nil, fmt.Errorf("none of %d publishes landed in the victim's arc", deadPublishes)
}

// expected is the answer a Complete query must return, less what
// soakMuts.stable leaves out: brute force over the boot corpus plus the
// publishes within r, in id order (theirs are above the corpus').
func expected(ds *netrt.Dataset, muts *soakMuts, pubs []soakPub, qobj []byte, r float64) ([]netrt.ResultEntry, error) {
	bf, err := ds.BruteForce(qobj, r)
	if err != nil {
		return nil, err
	}
	want := muts.stable(bf)
	for _, p := range pubs {
		d, err := ds.Distance(qobj, p.obj)
		if err != nil {
			return nil, err
		}
		if d <= r {
			want = append(want, netrt.ResultEntry{Obj: p.id, Dist: d})
		}
	}
	return want, nil
}

// infoOf asks the member at addr for its Info.
func infoOf(addr string) (netrt.Info, error) {
	cl, err := dialRetry(addr, 15*time.Second)
	if err != nil {
		return netrt.Info{}, err
	}
	defer cl.Close()
	return cl.Info(2 * time.Second)
}

// pubBase is the first id the durable soak publishes under — far above
// any boot corpus, as bench/load.go does — and pubsPerKill how many
// vectors it publishes before each SIGKILL.
const (
	pubBase     = int32(1) << 24
	pubsPerKill = 8
)

// soakMuts is the durable soak's online mutations: what a data dir is
// for, since the corpus itself is rebuilt on every boot. The boot ids it
// deletes are drawn before traffic starts, so the query workers can
// leave them and every published id out of their brute-force comparison
// (stable) whenever a mutation lands; pubs and deleted are written by
// the churn goroutine alone and read after it has ended. A nil *soakMuts
// is a soak without mutations.
type soakMuts struct {
	ds      *netrt.Dataset
	wide    float64   // a radius that covers the whole space
	doomed  []int32   // boot ids to delete, one per churn cycle
	pubs    []soakPub // acknowledged publishes
	deleted []int32   // acknowledged deletes
}

type soakPub struct {
	id  int32
	obj []byte
}

func newSoakMuts(o procOpts, ds *netrt.Dataset) *soakMuts {
	m := &soakMuts{ds: ds, wide: math.Sqrt(float64(o.dim)) + 1}
	rng := rand.New(rand.NewSource(o.seed + 59))
	for len(m.doomed) < o.churn && len(m.doomed) < ds.N() {
		if id := int32(rng.Intn(ds.N())); !slices.Contains(m.doomed, id) {
			m.doomed = append(m.doomed, id)
		}
	}
	return m
}

// stable returns ents without the ids the soak mutates: what is left
// must agree with brute force over the boot corpus at any moment.
func (m *soakMuts) stable(ents []netrt.ResultEntry) []netrt.ResultEntry {
	if m == nil {
		return ents
	}
	out := make([]netrt.ResultEntry, 0, len(ents))
	for _, e := range ents {
		if e.Obj < pubBase && !slices.Contains(m.doomed, e.Obj) {
			out = append(out, e)
		}
	}
	return out
}

// mutate publishes pubsPerKill fresh vectors and deletes one boot id
// through the member at addr, keeping what was acknowledged. A refusal
// is not a failure — the owner may be the member still coming back from
// the last kill — but only acknowledged mutations are owed anything.
func (m *soakMuts) mutate(addr string, members, cycle int, rng *rand.Rand) error {
	// A member acks as owner whatever its view makes it the owner of, so
	// one fresh from a restart must have learned the whole ring first.
	if err := waitMembers(addr, members, 30*time.Second); err != nil {
		return err
	}
	cl, err := dialRetry(addr, 15*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	for j := 0; j < pubsPerKill; j++ {
		p := soakPub{id: pubBase + int32(cycle*pubsPerKill+j), obj: m.ds.RandomQuery(rng)}
		if cl.Publish(p.id, p.obj, 10*time.Second) == nil {
			m.pubs = append(m.pubs, p)
		}
	}
	if cycle < len(m.doomed) && cl.Delete(m.doomed[cycle], nil, 10*time.Second) == nil {
		m.deleted = append(m.deleted, m.doomed[cycle])
	}
	return nil
}

// verify holds the ring to its acks once churn is over: every
// acknowledged publish comes back from a Complete radius-0 query at its
// vector, and a Complete query wide enough to cover the space returns no
// acknowledged delete and otherwise equals brute force. A soak that got
// nothing acknowledged has checked nothing and fails too.
func (m *soakMuts) verify(addrs []string, rng *rand.Rand) error {
	if len(m.doomed) > 0 && (len(m.pubs) == 0 || len(m.deleted) == 0) {
		return fmt.Errorf("%d publishes and %d deletes acknowledged; the soak needs some of each", len(m.pubs), len(m.deleted))
	}
	cls := make([]*netrt.Client, len(addrs))
	for i, addr := range addrs {
		cl, err := dialRetry(addr, 15*time.Second)
		if err != nil {
			return err
		}
		defer cl.Close()
		cls[i] = cl
	}
	for i, p := range m.pubs {
		got, err := completeAnswer(cls[i%len(cls)], p.obj, 0)
		if err != nil {
			return fmt.Errorf("read back publish %d: %w", p.id, err)
		}
		if !hasEntry(got, p.id) {
			return fmt.Errorf("acknowledged publish %d is gone: a radius-0 query at its vector through member %d returns %d entries without it",
				p.id, i%len(cls), len(got))
		}
	}
	qobj := m.ds.RandomQuery(rng)
	want, err := m.ds.BruteForce(qobj, m.wide)
	if err != nil {
		return err
	}
	for i, cl := range cls {
		got, err := completeAnswer(cl, qobj, m.wide)
		if err != nil {
			return fmt.Errorf("whole-space query through member %d: %w", i, err)
		}
		for _, id := range m.deleted {
			if hasEntry(got, id) {
				return fmt.Errorf("acknowledged delete of %d is undone: member %d answers it", id, i)
			}
		}
		if got, want := m.stable(got), m.stable(want); !sameEntries(got, want) {
			return fmt.Errorf("whole-space query through member %d disagrees with brute force (%d got, %d want)", i, len(got), len(want))
		}
	}
	return nil
}

// completeAnswer repeats one query until it comes back Complete.
func completeAnswer(cl *netrt.Client, qobj []byte, r float64) ([]netrt.ResultEntry, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		out, err := cl.Query(qobj, r, 10*time.Second)
		if err == nil && out.Complete {
			return out.Entries, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("answers still incomplete")
			}
			return nil, err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func hasEntry(ents []netrt.ResultEntry, id int32) bool {
	for _, e := range ents {
		if e.Obj == id {
			return true
		}
	}
	return false
}

// waitSyncedOwners blocks until the node at addr reports at least want
// synced replica copies.
func waitSyncedOwners(addr string, want int, window time.Duration) error {
	cl, err := dialRetry(addr, window)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(window)
	for {
		info, err := cl.Info(2 * time.Second)
		if err != nil {
			return err
		}
		if info.SyncedOwners >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stuck at %d of %d synced owners", info.SyncedOwners, want)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitDown blocks until the node at addr marks id down — or, with down
// false, no longer does.
func waitDown(addr string, id uint64, down bool, window time.Duration) error {
	cl, err := dialRetry(addr, window)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(window)
	for {
		info, err := cl.Info(2 * time.Second)
		if err != nil {
			return err
		}
		if slices.Contains(info.Down, id) == down {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("down set %v: the victim in it %v, never %v", info.Down, !down, down)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// spawn launches one lmnode for ring slot i on addr and waits for its
// ready line. With -durable, the slot's data dir rides along so a
// restart replays the mutations the member journaled there.
func (r *procRing) spawn(i int, addr, join string) (*ringProc, error) {
	args := append([]string{"-listen", addr}, r.args...)
	if join != "" {
		args = append(args, "-join", join)
	}
	if r.dataDirs != nil {
		args = append(args, "-data-dir", r.dataDirs[i])
	}
	cmd := exec.Command(r.bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Each member gets its own ready deadline; the error names the slot
	// that never came up, so a wedged spawn in a large ring is
	// attributable instead of surfacing as a generic timeout downstream.
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "ready addr=") {
				ready <- nil
				break
			}
		}
		select {
		case ready <- fmt.Errorf("ring slot %d: lmnode on %s exited before printing its ready line", i, addr):
		default:
		}
		for sc.Scan() { // keep draining so the child never blocks
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, err
		}
	case <-time.After(readyTimeout):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("ring slot %d: lmnode on %s never printed its ready line within %v", i, addr, readyTimeout)
	}
	return &ringProc{cmd: cmd}, nil
}

// readyTimeout bounds how long one spawned lmnode may take to print its
// ready line (journal replay and corpus build included).
const readyTimeout = 20 * time.Second

func (r *procRing) set(i int, p *ringProc) {
	r.mu.Lock()
	r.procs[i] = p
	r.mu.Unlock()
}

// kill SIGKILLs slot i's process and reaps it.
func (r *procRing) kill(i int) {
	r.mu.Lock()
	p := r.procs[i]
	r.procs[i] = nil
	r.mu.Unlock()
	if p != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

func (r *procRing) killAll() {
	r.mu.Lock()
	procs := append([]*ringProc(nil), r.procs...)
	for i := range r.procs {
		r.procs[i] = nil
	}
	r.mu.Unlock()
	for _, p := range procs {
		if p != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	}
}

// dialRetry dials a node's client port until it answers or the window
// closes (the member may be mid-restart).
func dialRetry(addr string, window time.Duration) (*netrt.Client, error) {
	deadline := time.Now().Add(window)
	for {
		cl, err := netrt.Dial(addr, 2*time.Second)
		if err == nil {
			return cl, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// assertRecovered dials a freshly restarted member and demands that it
// reports Recovered=true — it came up on the data directory its last
// incarnation initialised, not on an empty one.
func assertRecovered(addr string, window time.Duration) error {
	cl, err := dialRetry(addr, window)
	if err != nil {
		return err
	}
	defer cl.Close()
	info, err := cl.Info(2 * time.Second)
	if err != nil {
		return err
	}
	if !info.Recovered {
		return fmt.Errorf("Info reports Recovered=false (store=%d, replayed=%d)", info.Store, info.Replayed)
	}
	if info.Replayed == 0 {
		return fmt.Errorf("Info reports recovery but zero replayed records")
	}
	return nil
}

// waitMembers blocks until the node at addr sees want ring members.
func waitMembers(addr string, want int, window time.Duration) error {
	cl, err := dialRetry(addr, window)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(window)
	for {
		info, err := cl.Info(2 * time.Second)
		if err != nil {
			return err
		}
		if len(info.Members) >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("view stuck at %d of %d members", len(info.Members), want)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitRecovered queries one member until an answer comes back Complete
// and brute-force exact, pubs included.
func waitRecovered(addr string, ds *netrt.Dataset, muts *soakMuts, pubs []soakPub, rng *rand.Rand, window time.Duration) error {
	cl, err := dialRetry(addr, window)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(window)
	for {
		qobj := ds.RandomQuery(rng)
		r := 0.6 + 0.5*rng.Float64()
		out, qerr := cl.Query(qobj, r, 10*time.Second)
		if qerr == nil && out.Complete {
			want, err := expected(ds, muts, pubs, qobj, r)
			if err != nil {
				return err
			}
			if got := muts.stable(out.Entries); !sameEntries(got, want) {
				return fmt.Errorf("complete result disagrees with brute force (%d got, %d want)",
					len(got), len(want))
			}
			return nil
		}
		if time.Now().After(deadline) {
			if qerr != nil {
				return qerr
			}
			return fmt.Errorf("answers still incomplete")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// sameEntries reports whether got covers exactly the brute-force
// answer (both sorted by object id).
func sameEntries(got, want []netrt.ResultEntry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Obj != want[i].Obj {
			return false
		}
	}
	return true
}

// subsetEntries reports whether every got entry is in the brute-force
// answer.
func subsetEntries(got, want []netrt.ResultEntry) bool {
	have := make(map[int32]bool, len(want))
	for _, e := range want {
		have[e.Obj] = true
	}
	for _, e := range got {
		if !have[e.Obj] {
			return false
		}
	}
	return true
}
