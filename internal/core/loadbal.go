package core

import (
	"fmt"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/runtime"
)

// LBConfig parameterizes §3.4 dynamic load migration.
type LBConfig struct {
	// Delta is the threshold factor δ: a node is heavily loaded when
	// its load exceeds the neighbor average by (1+δ). The paper's
	// maximum-effect experiments use δ = 0.
	Delta float64
	// ProbeLevel is P_l: how many routing-table hops the load probe
	// explores (paper's experiments: 4).
	ProbeLevel int
	// Period is the probing interval.
	Period time.Duration
	// MinLoad suppresses migrations on nearly empty nodes.
	MinLoad int
}

// probeBytes is the nominal size of a load-probe message. The paper
// piggybacks load information on routing-table maintenance; the cost is
// accounted as maintenance traffic.
const probeBytes = 16

type lbController struct {
	sys     *System
	cfg     LBConfig
	tickers []*runtime.Ticker
	// Migrations counts completed migrations.
	Migrations int
	// Aborted counts migrations abandoned because the heavy node's
	// load sat on a single key (§4.3: "the load balancing mechanism
	// can not divide the index entries associated with a single key").
	Aborted int
}

// EnableLoadBalancing starts periodic load probing and migration on
// every current node. Call after nodes are added and stabilized.
func (s *System) EnableLoadBalancing(cfg LBConfig) error {
	if s.lb != nil {
		return fmt.Errorf("core: load balancing already enabled")
	}
	if cfg.Period <= 0 {
		cfg.Period = 30 * time.Second
	}
	if cfg.ProbeLevel <= 0 {
		cfg.ProbeLevel = 1
	}
	if cfg.MinLoad < 2 {
		cfg.MinLoad = 2
	}
	if s.hasReplicas() {
		return fmt.Errorf("core: dynamic load migration cannot run on a replicated deployment")
	}
	lb := &lbController{sys: s, cfg: cfg}
	s.lb = lb
	for _, in := range s.Nodes() {
		in := in
		offset := time.Duration(s.rt.Rand().Int63n(int64(cfg.Period)))
		t := runtime.NewTicker(s.rt, offset, cfg.Period, func() { lb.tick(in) })
		lb.tickers = append(lb.tickers, t)
	}
	return nil
}

// DisableLoadBalancing stops all probing.
func (s *System) DisableLoadBalancing() {
	if s.lb == nil {
		return
	}
	for _, t := range s.lb.tickers {
		t.Stop()
	}
	s.lb = nil
}

// LBStats reports migration counts since load balancing was enabled.
func (s *System) LBStats() (migrations, aborted int) {
	if s.lb == nil {
		return 0, 0
	}
	return s.lb.Migrations, s.lb.Aborted
}

// probeNeighbors walks the node's routing table up to ProbeLevel hops
// and returns the loads discovered (excluding the probing node). Load
// information travels piggybacked on maintenance traffic; the probe
// cost is charged as maintenance messages.
func (lb *lbController) probeNeighbors(in *IndexNode) map[chord.ID]int {
	s := lb.sys
	seen := map[chord.ID]bool{in.ID(): true}
	frontier := []*IndexNode{in}
	loads := make(map[chord.ID]int)
	for level := 0; level < lb.cfg.ProbeLevel; level++ {
		var next []*IndexNode
		for _, cur := range frontier {
			for _, id := range cur.node.RoutingTable() {
				if seen[id] {
					continue
				}
				seen[id] = true
				if nb := s.nodes[id]; nb != nil && nb.node.Alive() {
					loads[id] = nb.Load()
					next = append(next, nb)
				}
			}
		}
		// One piggybacked probe exchange (request + response) per
		// newly discovered neighbor per level.
		s.net.RecordTraffic(chord.KindMaintenance, 2*probeBytes*len(next))
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return loads
}

// tick runs one probing round on a node (§3.4): if the node's load
// exceeds the neighbor average by (1+δ), it recruits the lightest
// known node to leave and rejoin at its load split point.
func (lb *lbController) tick(in *IndexNode) {
	s := lb.sys
	if !in.node.Alive() || in.migrating {
		return
	}
	myLoad := in.Load()
	if myLoad < lb.cfg.MinLoad {
		return
	}
	loads := lb.probeNeighbors(in)
	if len(loads) == 0 {
		return
	}
	var sum int
	lightest := chord.ID(0)
	lightLoad := -1
	for id, l := range loads {
		sum += l
		if lightLoad < 0 || l < lightLoad || (l == lightLoad && id < lightest) {
			lightest, lightLoad = id, l
		}
	}
	avg := float64(sum) / float64(len(loads))
	if float64(myLoad) <= avg*(1+lb.cfg.Delta) {
		return
	}
	light := s.nodes[lightest]
	if light == nil || light.migrating || lightest == in.ID() {
		return
	}
	// Only steal from a node that is meaningfully heavier than the
	// recruit, otherwise the pair oscillates forever.
	if myLoad < 2*lightLoad+2 {
		return
	}
	lb.migrate(in, light)
}

// migrate implements the §3.4 mechanism: the light node leaves
// (handing its entries to its successor), then rejoins at the heavy
// node's load split point, and the heavy node's lower half transfers
// over. Transfers take simulated time; queries meanwhile can miss the
// in-flight entries — the source of the paper's recall dip under load
// balancing.
func (lb *lbController) migrate(heavy, light *IndexNode) {
	s := lb.sys
	// Split point: the median entry key within the heavy node's range.
	pred, ok := heavy.node.Predecessor()
	if !ok {
		return
	}
	base := pred + 1
	split, okSplit := combinedMedian(heavy, base)
	if !okSplit {
		lb.Aborted++
		return
	}
	if split == heavy.ID() || s.net.Node(split) != nil {
		lb.Aborted++ // split point collides with an existing node
		return
	}
	heavy.migrating = true
	light.migrating = true
	lb.Migrations++

	// 1. The light node takes every entry out of its regions (an
	// extraction over the whole ring) and streams them in bulk to
	// its ring successor — the node that will own them once it leaves —
	// while it is still alive to drive the stream (chunk
	// acknowledgements return to it). Queries during the stream can
	// miss the in-flight entries: the paper's recall dip under load
	// balancing.
	type batch struct {
		keys    []lph.Key
		entries []Entry
	}
	oldID, host := light.ID(), light.node.Host()
	drainOrder := light.st.Indexes()
	drained := make(map[string]batch)
	for _, name := range drainOrder {
		keys, entries, err := light.st.ExtractUpTo(name, 0, ^lph.Key(0))
		s.noteStoreErr(err)
		drained[name] = batch{keys, entries}
	}
	succ, err := s.net.SuccessorID(oldID + 1)
	if err != nil || succ == oldID {
		// No successor to hand over to; unwind.
		for _, name := range drainOrder {
			b := drained[name]
			s.reinsert(name, b.keys, b.entries)
		}
		heavy.migrating = false
		light.migrating = false
		lb.Aborted++
		return
	}

	// 2. Once every stream has finished, the light node departs and
	// rejoins at the split point, and the heavy node streams its lower
	// half over to it.
	rejoin := func() {
		if err := s.net.RemoveNode(oldID); err != nil {
			heavy.migrating = false
			light.migrating = false
			return
		}
		s.ForgetNode(oldID)
		s.net.FixAround(oldID)
		if s.net.Node(split) != nil {
			// The split point was taken while the handoff streamed; the
			// light node's entries are safe at its successor, but the
			// rejoin cannot happen.
			heavy.migrating = false
			lb.Aborted++
			return
		}
		fresh, err := s.AddNode(split, host)
		if err != nil {
			heavy.migrating = false
			return
		}
		fresh.migrating = true
		s.net.FixAround(split)

		// 3. The heavy node ships its lower half to the fresh node as
		// bulk streams; both participants become eligible again once
		// the last stream completes.
		names := heavy.st.Indexes()
		pending := len(names) + 1
		settle := func() {
			pending--
			if pending == 0 {
				heavy.migrating = false
				fresh.migrating = false
			}
		}
		for _, name := range names {
			keys, entries, err := heavy.st.ExtractUpTo(name, base, split)
			s.noteStoreErr(err)
			s.streamRegion(heavy, fresh.ID(), name, keys, entries, settle)
		}
		settle()

		// The fresh node participates in probing from now on.
		offset := time.Duration(s.rt.Rand().Int63n(int64(lb.cfg.Period)))
		t := runtime.NewTicker(s.rt, offset, lb.cfg.Period, func() { lb.tick(fresh) })
		lb.tickers = append(lb.tickers, t)
	}

	pending := len(drainOrder) + 1
	handoff := func() {
		pending--
		if pending == 0 {
			rejoin()
		}
	}
	for _, name := range drainOrder {
		b := drained[name]
		s.streamRegion(light, succ, name, b.keys, b.entries, handoff)
	}
	handoff()
}

// combinedMedian computes a split key over all of a node's regions.
func combinedMedian(in *IndexNode, base lph.Key) (lph.Key, bool) {
	var merged []lph.Key
	for _, name := range in.st.Indexes() {
		in.st.View(name, func(keys []lph.Key, _ []Entry) {
			merged = append(merged, keys...)
		})
	}
	return medianOffsetKey(merged, base)
}
