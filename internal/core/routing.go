package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

// activeQuery tracks one in-flight range query across the system.
type activeQuery struct {
	id      int
	ix      *Index
	payload any
	r       float64
	topK    int
	srcID   chord.ID
	stats   QueryStats
	// pending counts subqueries whose results have not yet reached
	// the querier; the query completes when it hits zero.
	pending  int
	results  map[ObjectID]float64
	answered map[chord.ID]bool
	done     func(*QueryResult)
	finished bool
	gotFirst bool
	trace    *Trace
	// Resilience bookkeeping. Every live subquery region holds a
	// token; settling a token (answer or drop) is idempotent, which is
	// what lets hedged duplicates and post-deadline stragglers arrive
	// without corrupting the pending count or the result set. The
	// outstanding list exists only when a deadline or hedging is
	// configured, so the default path allocates nothing extra.
	nextTok     int
	outstanding []pendingRegion
	dropped     int
	uncovered   []query.Region
	expired     bool
	deadline    runtime.Timer
	// admitted marks queries counted by the admission gate; finish
	// releases their slot. Queries issued outside the gate (the naive
	// router) never set it.
	admitted bool
}

// pendingRegion pairs a subquery region with its settlement token.
// chains counts the independent delivery attempts able to answer it:
// 1 for the original shipment, +1 per hedge. A loss only settles the
// token as dropped when its last chain dies.
type pendingRegion struct {
	tok    int
	reg    query.Region
	chains int
}

// tracking reports whether outstanding regions are tracked (a deadline
// or hedging is configured for this query).
func (aq *activeQuery) tracking() bool { return aq.outstanding != nil }

// newToken registers one more outstanding subquery region and returns
// its settlement token.
func (aq *activeQuery) newToken(reg query.Region) int {
	aq.nextTok++
	aq.pending++
	if aq.outstanding != nil {
		aq.outstanding = append(aq.outstanding, pendingRegion{tok: aq.nextTok, reg: reg, chains: 1})
	}
	return aq.nextTok
}

// addChain records one more delivery chain (a hedge) for a token.
func (aq *activeQuery) addChain(tok int) {
	for i := range aq.outstanding {
		if aq.outstanding[i].tok == tok {
			aq.outstanding[i].chains++
			return
		}
	}
}

// lastChain records the death of one delivery chain for a token and
// reports whether no chain remains — only then is the token truly
// lost. An already-settled token reports true; the caller's settle is
// the no-op that filters it.
func (aq *activeQuery) lastChain(tok int) bool {
	for i := range aq.outstanding {
		if aq.outstanding[i].tok == tok {
			aq.outstanding[i].chains--
			return aq.outstanding[i].chains <= 0
		}
	}
	return true
}

// moveToken records that a token's region was refined in place, so a
// deadline snapshot reports the region actually outstanding.
func (aq *activeQuery) moveToken(tok int, reg query.Region) {
	for i := range aq.outstanding {
		if aq.outstanding[i].tok == tok {
			aq.outstanding[i].reg = reg
			return
		}
	}
}

// settle resolves a token, reporting false when it was already settled
// (a hedged duplicate or a stale retransmission) — the caller must
// then ignore the answer entirely. With tracking off, every delivery
// path is made idempotent by sqUnit.delivered flags, so each settle is
// necessarily the first.
func (aq *activeQuery) settle(tok int) bool {
	if aq.outstanding == nil {
		aq.pending--
		return true
	}
	for i := range aq.outstanding {
		if aq.outstanding[i].tok == tok {
			aq.outstanding = append(aq.outstanding[:i], aq.outstanding[i+1:]...)
			aq.pending--
			return true
		}
	}
	return false
}

// stillOutstanding reports whether a tracked token has not settled.
func (aq *activeQuery) stillOutstanding(tok int) bool {
	for i := range aq.outstanding {
		if aq.outstanding[i].tok == tok {
			return true
		}
	}
	return false
}

// stale reports whether work on a token is moot: the query finished
// (deadline expiry) or the token settled elsewhere (a hedge won).
func (aq *activeQuery) stale(tok int) bool {
	return aq.finished || (aq.tracking() && !aq.stillOutstanding(tok))
}

// QueryOpts tunes one query.
type QueryOpts struct {
	// TopK, when positive, makes every index node return its TopK
	// nearest candidates (the paper's recall protocol with k = 10) and
	// the final result the merged TopK. When zero the query is an
	// exact range query: results are candidates with distance <= r.
	TopK int
	// Trace records the query's distributed execution (routing steps,
	// splits, refinements, local answers) in QueryResult.Trace.
	Trace bool
	// Deadline, when positive, bounds this query's total time,
	// overriding Config.Deadline. On expiry the query finishes with
	// whatever arrived, marked incomplete, and the still-outstanding
	// regions reported in QueryResult.Uncovered.
	Deadline time.Duration
}

// RangeQuery issues the near-neighbor query (payload, r) on index
// indexName from the node srcID. center must be the query's index-
// space point (the embedding of payload); the system converts it into
// the hypercube range query of §3.1 and resolves it with the
// embedded-tree routing of §3.3. done fires when all index-node
// results have arrived.
//
// The call only schedules work; drive the sim.Engine to completion.
func (s *System) RangeQuery(indexName string, srcID chord.ID, payload any, center []float64, r float64, opts QueryOpts, done func(*QueryResult)) error {
	ix, err := s.lookupIndex(indexName)
	if err != nil {
		return err
	}
	src, ok := s.nodes[srcID]
	if !ok {
		return fmt.Errorf("core: unknown source node %#x", srcID)
	}
	if len(center) != ix.Part.K() {
		return fmt.Errorf("core: query center has %d coordinates, want %d", len(center), ix.Part.K())
	}
	if r < 0 {
		return fmt.Errorf("core: negative query range %v", r)
	}
	region, err := query.Around(ix.Part, center, r)
	if err != nil {
		return err
	}
	if s.cfg.MaxActiveQueries > 0 && s.active >= s.cfg.MaxActiveQueries {
		// Admission control: the system is saturated, so the query is
		// rejected up front with an honest incomplete result — its whole
		// region is Uncovered and the rejection is counted. Nothing is
		// silently lost and no work is queued.
		s.AdmissionRejected++
		now := s.rt.Now()
		res := &QueryResult{
			Complete:  false,
			Uncovered: []query.Region{region.Clone()},
			Stats:     QueryStats{Issued: now, FirstResult: now, LastResult: now},
		}
		if done != nil {
			s.rt.Schedule(0, func() { done(res) })
		}
		return nil
	}
	s.nextQ++
	aq := &activeQuery{
		id:       s.nextQ,
		ix:       ix,
		payload:  payload,
		r:        r,
		topK:     opts.TopK,
		srcID:    srcID,
		results:  make(map[ObjectID]float64),
		answered: make(map[chord.ID]bool),
		done:     done,
	}
	if opts.Trace {
		aq.trace = &Trace{}
	}
	aq.stats.Issued = s.rt.Now()
	aq.admitted = true
	s.active++
	tok := s.beginResilience(aq, opts, region)
	s.routeAt(src, aq, region, 0, tok)
	return nil
}

// beginResilience sets up a query's outstanding-region tracking and
// deadline timer according to the effective resilience knobs, and
// issues the token for its initial region. With all knobs zero it
// degenerates to a bare newToken: no tracking list, no timer, no extra
// allocations, and — because the deadline timer is the only new event
// source — a byte-identical simulation schedule.
func (s *System) beginResilience(aq *activeQuery, opts QueryOpts, region query.Region) int {
	dl := opts.Deadline
	if dl == 0 {
		dl = s.cfg.Deadline
	}
	if dl > 0 || s.cfg.Hedge.Enabled() {
		aq.outstanding = make([]pendingRegion, 0, 4)
	}
	tok := aq.newToken(region)
	if dl > 0 {
		aq.deadline = s.rt.AfterFunc(dl, func() { s.expireQuery(aq) })
	}
	return tok
}

// expireQuery ends a query at its deadline: the regions still
// outstanding become the Uncovered list and the query finishes with
// whatever results arrived, honestly marked incomplete.
func (s *System) expireQuery(aq *activeQuery) {
	if aq.finished {
		return
	}
	aq.expired = true
	for _, pr := range aq.outstanding {
		aq.uncovered = append(aq.uncovered, pr.reg.Clone())
	}
	aq.trace.add(TraceEvent{At: s.rt.Now(), Node: aq.srcID, Action: TraceDeadline,
		Hops: aq.stats.Hops})
	s.finish(aq)
}

// maxHops bounds a subquery's path length as a routing-loop guard.
const maxHops = 512

// routeAt is Algorithm 3 (QueryRouting) executing at node n with the
// query q at hop depth hops.
func (s *System) routeAt(n *IndexNode, aq *activeQuery, q query.Region, hops int, tok int) {
	if hops > maxHops {
		aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: TraceDrop,
			PreKey: q.PreKey, PreLen: q.PreLen, Hops: hops})
		s.dropSubquery(aq, q, tok)
		return
	}
	aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: TraceRoute,
		PreKey: q.PreKey, PreLen: q.PreLen, Hops: hops})
	var list []pendingRegion
	if q.PreLen == lph.M {
		list = []pendingRegion{{tok: tok, reg: q}}
	} else {
		subs := query.Split(s.ix(aq).Part, q, q.PreLen+1)
		if len(subs) == 1 {
			// The query lies in one half: forward the refined query
			// (equivalent to forwarding q; the prefix is just longer).
			aq.moveToken(tok, subs[0])
			list = []pendingRegion{{tok: tok, reg: subs[0]}}
		} else {
			n1 := n.node.NextHop(s.ring(aq, subs[0].PreKey))
			n2 := n.node.NextHop(s.ring(aq, subs[1].PreKey))
			if n1 == n2 {
				// Both halves share the next hop: ship the whole query
				// onward as one unit (lowest-common-ancestor routing).
				list = []pendingRegion{{tok: tok, reg: q}}
			} else {
				// One region became two.
				aq.moveToken(tok, subs[0])
				tok2 := aq.newToken(subs[1])
				list = []pendingRegion{{tok: tok, reg: subs[0]}, {tok: tok2, reg: subs[1]}}
			}
		}
	}
	s.dispatch(n, aq, list, hops)
}

// sqUnit tracks one subquery region across delivery attempts. The
// delivered flag makes the receive path idempotent: duplicates caused
// by premature timeouts or lost acknowledgements are ignored, so each
// unit's token is settled exactly once.
type sqUnit struct {
	reg       query.Region
	tok       int
	delivered bool
}

// destKey identifies one dispatch destination and the mode the query
// is delivered in there (routing vs. surrogate refinement).
type destKey struct {
	id        chord.ID
	surrogate bool
}

// dispatch groups subqueries by destination and ships each group as a
// single query message (the byte model charges per subquery).
//
// routeAt dispatches at most two regions per hop, so the grouping uses
// linear scans over fixed-size arrays instead of a map: one backing
// sqUnit allocation for the whole list, and first-seen destination
// order (deterministic, same as the previous map+order form).
func (s *System) dispatch(n *IndexNode, aq *activeQuery, list []pendingRegion, hops int) {
	arr := make([]sqUnit, 0, len(list))
	var (
		dests  [2]destKey
		groups [2][]*sqUnit
		nd     int
	)
	for _, sq := range list {
		rk := s.ring(aq, sq.reg.PreKey)
		if n.node.OwnsKey(rk) {
			// This node is itself the surrogate for the subquery.
			s.surrogateRefine(n, aq, sq.reg, hops, sq.tok)
			continue
		}
		nh := n.node.NextHop(rk)
		var d destKey
		if nh == n.node.ID() {
			// We are the predecessor of the prefix key: the successor
			// is the surrogate (Algorithm 3 line 17).
			d = destKey{id: n.node.Successor(), surrogate: true}
		} else {
			d = destKey{id: nh, surrogate: false}
		}
		if s.cfg.Hedge.Enabled() && s.suspicion[d.id] >= suspicionThreshold {
			if alt, ok := s.suspectAlternate(aq, d); ok {
				// Each avoidance spends one unit of suspicion, so a
				// recovered node is probed again after at most
				// suspicionThreshold redirections.
				s.suspicion[d.id]--
				d = alt
			}
		}
		arr = append(arr, sqUnit{reg: sq.reg, tok: sq.tok})
		gi := -1
		for i := 0; i < nd; i++ {
			if dests[i] == d {
				gi = i
				break
			}
		}
		if gi < 0 {
			if nd == len(dests) {
				panic("core: dispatch list exceeds two destinations")
			}
			dests[nd] = d
			nd++
			gi = nd - 1
		}
		groups[gi] = append(groups[gi], &arr[len(arr)-1])
	}
	for i := 0; i < nd; i++ {
		s.ship(n, aq, dests[i].id, dests[i].surrogate, groups[i], hops, 0, false)
	}
}

// suspectAlternate picks the replacement destination for a suspected-
// dead node: its successor. Routing-mode deliveries can continue at
// any node, so the redirection is always sound there; a surrogate-mode
// delivery is answered from the alternate's local store, which is only
// sound when the index keeps replicas.
func (s *System) suspectAlternate(aq *activeQuery, d destKey) (destKey, bool) {
	in, ok := s.nodes[d.id]
	if !ok {
		return destKey{}, false
	}
	succ := in.node.Successor()
	if succ == d.id {
		return destKey{}, false
	}
	if d.surrogate && s.replicated[aq.ix.Name] < 2 {
		return destKey{}, false
	}
	return destKey{id: succ, surrogate: d.surrogate}, true
}

// ship transmits one query message carrying the given subquery units to
// dest. Attempt 0 is the original transmission. With the reliability
// layer off this is fire-and-forget: a loss surfaces through the failed
// callback and the units are dropped. With it on, the receiver
// acknowledges the message; if the ack does not arrive within the
// retransmission timeout, shipTimeout re-resolves each still-undelivered
// unit's owner and retransmits with exponential backoff. hedge marks a
// hedged duplicate: it is traced as such and never arms its own hedge
// timer (hedges do not cascade).
func (s *System) ship(n *IndexNode, aq *activeQuery, dest chord.ID, surrogate bool, units []*sqUnit, hops, attempt int, hedge bool) {
	undelivered := 0
	for _, u := range units {
		if !u.delivered {
			undelivered++
		}
	}
	if undelivered == 0 {
		return
	}
	live := units
	if undelivered != len(units) {
		live = make([]*sqUnit, 0, undelivered)
		for _, u := range units {
			if !u.delivered {
				live = append(live, u)
			}
		}
	}
	var bytes int
	var payload []byte
	if s.cfg.EncodeWire {
		// Real binary encoding: the receiver works on the decoded
		// (quantization-widened) cubes.
		regions := make([]query.Region, len(live))
		for i, u := range live {
			regions[i] = u.reg
		}
		data, err := wire.EncodeQuery(aq.ix.Part, wire.QueryMessage{
			Source:     uint32(aq.srcID),
			Subqueries: regions,
		})
		if err != nil {
			for _, u := range live {
				u.delivered = true
				s.dropSubquery(aq, u.reg, u.tok)
			}
			return
		}
		payload, bytes = data, len(data)
	} else {
		bytes = s.cfg.Msg.QueryMsgBytes(len(live), aq.ix.Part.K())
	}
	aq.stats.QueryMsgs++
	aq.stats.QueryBytes += int64(bytes)
	action := TraceForward
	switch {
	case hedge:
		action = TraceHedge
		s.HedgesIssued += len(live)
		aq.stats.Hedges += len(live)
	case attempt > 0:
		action = TraceRetry
		s.RetriesIssued++
		aq.stats.Retries++
	}
	for _, u := range live {
		aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: action,
			PreKey: u.reg.PreKey, PreLen: u.reg.PreLen, Hops: hops, Dest: dest})
	}
	deliver := func(dst *chord.Node) {
		in := s.nodes[dst.ID()]
		var use []query.Region // decoded cubes; nil = use the units' own regions
		if payload != nil {
			decoded, err := wire.DecodeQuery(aq.ix.Part, payload)
			if err != nil {
				for _, u := range live {
					if !u.delivered {
						u.delivered = true
						s.dropSubquery(aq, u.reg, u.tok)
					}
				}
				return
			}
			use = decoded.Subqueries
		}
		for i, u := range live {
			if u.delivered {
				continue // duplicate of an already-processed unit
			}
			u.delivered = true
			if aq.stale(u.tok) {
				continue // settled elsewhere: a hedge won, or the deadline hit
			}
			if attempt > 0 {
				s.RecoveredSubqueries++
			}
			reg := u.reg
			if use != nil {
				reg = use[i]
			}
			if surrogate {
				s.surrogateRefine(in, aq, reg, hops+1, u.tok)
			} else {
				s.routeAt(in, aq, reg, hops+1, u.tok)
			}
		}
	}
	if attempt == 0 && !hedge && s.cfg.Hedge.Enabled() {
		s.armHedge(n, aq, dest, live, hops)
	}
	if !s.cfg.Retry.Enabled() {
		s.net.SendOrFail(n.node, dest, chord.KindQuery, bytes, deliver, func() {
			for _, u := range live {
				if !u.delivered {
					u.delivered = true
					s.dropSubquery(aq, u.reg, u.tok)
				}
			}
		})
		return
	}
	timer := s.rt.AfterFunc(s.retryTimeout(attempt), func() {
		s.shipTimeout(n, aq, dest, live, hops, attempt)
	})
	s.net.SendOrFail(n.node, dest, chord.KindQuery, bytes, func(dst *chord.Node) {
		// Acknowledge first (duplicates too: the sender's timer must
		// stop either way), then process the undelivered units.
		s.net.SendOrFail(dst, n.node.ID(), chord.KindAck, retryAckBytes, func(*chord.Node) {
			timer.Stop()
			s.unsuspect(dest)
		}, nil)
		deliver(dst)
	}, nil)
}

// armHedge schedules the hedge check for a freshly shipped group of
// subquery units: any still outstanding after the hedge delay get a
// duplicate shipped toward their region owner's replica.
func (s *System) armHedge(n *IndexNode, aq *activeQuery, dest chord.ID, units []*sqUnit, hops int) {
	if aq.stats.Hedges >= s.cfg.Hedge.MaxPerQuery {
		return
	}
	s.rt.AfterFunc(s.cfg.Hedge.Delay, func() {
		s.hedgeFire(n, aq, dest, units, hops)
	})
}

// hedgeFire runs when a group's hedge delay elapses. Each unit whose
// token is still outstanding is duplicated to the first replica of its
// region's current owner (the owner itself when the index keeps no
// replicas) in surrogate mode, and the original destination gains one
// unit of suspicion. Token settlement guarantees whichever copy
// answers first wins and the other is ignored.
func (s *System) hedgeFire(n *IndexNode, aq *activeQuery, dest chord.ID, units []*sqUnit, hops int) {
	if aq.finished || !n.node.Alive() {
		return
	}
	var (
		groups map[chord.ID][]*sqUnit
		order  []chord.ID // deterministic hedge-ship order
		queued int
	)
	suspected := false
	for _, u := range units {
		if !aq.stillOutstanding(u.tok) {
			continue
		}
		if aq.stats.Hedges+queued >= s.cfg.Hedge.MaxPerQuery {
			break
		}
		if !suspected {
			suspected = true
			s.suspect(dest)
		}
		owner, err := s.net.SuccessorID(s.ring(aq, u.reg.PreKey))
		if err != nil {
			continue
		}
		target := owner
		if s.replicated[aq.ix.Name] >= 2 {
			if in, ok := s.nodes[owner]; ok {
				if succ := in.node.Successor(); succ != owner {
					target = succ
				}
			}
		}
		if target == n.node.ID() {
			continue // we are the alternate ourselves: nothing to hedge to
		}
		if groups == nil {
			groups = make(map[chord.ID][]*sqUnit)
		}
		if _, seen := groups[target]; !seen {
			order = append(order, target)
		}
		// A fresh unit: the original keeps its own delivered flag, the
		// shared token arbitrates which copy's answer counts. The extra
		// chain keeps a later primary-side loss from settling a token
		// this hedge can still answer.
		groups[target] = append(groups[target], &sqUnit{reg: u.reg, tok: u.tok})
		aq.addChain(u.tok)
		queued++
	}
	for _, t := range order {
		s.ship(n, aq, t, true, groups[t], hops, 0, true)
	}
}

// shipTimeout runs when a query message's ack timer fires: any units
// still undelivered are re-resolved to the current successor of their
// prefix key — under ReplicateAll placement, the first live replica of
// a crashed owner — and retransmitted, or dropped once retries are
// exhausted (or the sender itself died).
func (s *System) shipTimeout(n *IndexNode, aq *activeQuery, dest chord.ID, units []*sqUnit, hops, attempt int) {
	var remaining []*sqUnit
	for _, u := range units {
		if u.delivered {
			continue
		}
		if aq.stale(u.tok) {
			u.delivered = true // settled elsewhere: nothing left to retry
			continue
		}
		remaining = append(remaining, u)
	}
	if len(remaining) == 0 {
		return
	}
	s.suspect(dest)
	if attempt >= s.cfg.Retry.MaxRetries || !n.node.Alive() {
		for _, u := range remaining {
			u.delivered = true
			aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: TraceDrop,
				PreKey: u.reg.PreKey, PreLen: u.reg.PreLen, Hops: hops})
			s.dropSubquery(aq, u.reg, u.tok)
		}
		return
	}
	// The successor of the prefix key owns it, so the retransmission is
	// delivered in surrogate mode regardless of how the original was
	// routed.
	groups := make(map[chord.ID][]*sqUnit)
	var order []chord.ID // deterministic retransmission order
	for _, u := range remaining {
		owner, err := s.net.SuccessorID(s.ring(aq, u.reg.PreKey))
		if err != nil {
			u.delivered = true
			s.dropSubquery(aq, u.reg, u.tok)
			continue
		}
		if _, seen := groups[owner]; !seen {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], u)
	}
	for _, dst := range order {
		s.ship(n, aq, dst, true, groups[dst], hops, attempt+1, false)
	}
}

// surrogateRefine is Algorithm 5 executing at node n: the node routes
// onward the parts of the query region whose keys lie beyond the key
// range it covers, and answers the remainder from its local store.
//
// The decomposition is the closed form of the paper's recursion: with
// vid the node's identifier in the index's unrotated key space, the
// keys of the query cuboid above vid are exactly the union, over every
// zero-bit position z of vid past the prefix, of the sibling cuboid
// obtained by setting bit z (Algorithm 5 lines 5–18 walk these
// positions one at a time; query.Refine, shared with netrt, finds them
// in one walk down vid's bits). Each sibling is clipped to the query cube
// and re-enters QueryRouting; everything else is covered by this node.
// Unlike the paper's pseudocode — which retags the query to
// prefix(vid, j-1) and thereby drops the cube's extent inside the
// *lower* sibling cuboids it also covers — the local answer scans the
// full incoming cube. Entries are partitioned across nodes by key, so
// the wider local scan cannot duplicate results from other nodes.
func (s *System) surrogateRefine(n *IndexNode, aq *activeQuery, q query.Region, hops int, tok int) {
	if hops > maxHops {
		aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: TraceDrop,
			PreKey: q.PreKey, PreLen: q.PreLen, Hops: hops})
		s.dropSubquery(aq, q, tok)
		return
	}
	aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: TraceRefine,
		PreKey: q.PreKey, PreLen: q.PreLen, Hops: hops})
	part := aq.ix.Part
	vid := part.Unring(n.node.ID()) // node id in this index's unrotated key space
	// When the node sits inside the query cuboid, keys above vid belong
	// to other nodes: route each maximal sub-cuboid above vid the cube
	// touches. When the prefixes differ, successor(prekey) lies beyond
	// the cuboid, so no node exists inside it, Refine emits nothing and
	// this node covers the whole region (Algorithm 5 lines 1–3). Either
	// way, answer the covered part locally.
	query.Refine(part, q, vid, func(sub query.Region) {
		s.routeAt(n, aq, sub, hops, aq.newToken(sub))
	})
	s.answerLocal(n, aq, q, hops, tok)
}

// answerLocal resolves one subquery against the node's local store and
// ships the result back to the querier.
func (s *System) answerLocal(n *IndexNode, aq *activeQuery, q query.Region, hops int, tok int) {
	if hops > aq.stats.Hops {
		aq.stats.Hops = hops
	}
	// Scan into the system-wide scratch buffer: the candidate list is
	// fully consumed below before any other scan can run (the engine is
	// single-threaded and Refine callbacks never re-enter the system).
	s.scanBuf = n.st.Scan(aq.ix.Name, q, s.scanBuf[:0])
	s.answerDone(n, aq, q, hops, tok, refineLocal(aq, s.scanBuf, &s.refine), len(s.scanBuf))
}

// refineBatch is the scratch of one Index.Refine call: the ids of up to
// 64 candidates and their exact distances.
type refineBatch struct {
	ids  [64]int32
	dist [64]float64
}

// refineLocal applies exact-distance refinement (and the paper's
// per-node top-k cut) to a scan's candidates, up to 64 at a time
// through the index's Refine, and returns the results in candidate
// order: the hits of a range query, every candidate of a top-k one. It
// stays a function of its own: answerDone's escaping closures capture
// the result slice, and building it in the same frame would move the
// slice header to the heap — one allocation per answered subquery.
func refineLocal(aq *activeQuery, cands []Entry, b *refineBatch) []Result {
	var local []Result
	for len(cands) > 0 {
		n := min(len(cands), len(b.ids))
		for i, e := range cands[:n] {
			b.ids[i] = int32(e.Obj)
		}
		hits := aq.ix.Refine(aq.payload, b.ids[:n], aq.r, b.dist[:n])
		if aq.topK > 0 {
			hits = math.MaxUint64 >> (64 - n) // the cut below keeps the nearest
		}
		for ; hits != 0; hits &= hits - 1 {
			i := bits.TrailingZeros64(hits)
			local = append(local, Result{Obj: cands[i].Obj, Dist: b.dist[i]})
		}
		cands = cands[n:]
	}
	if aq.topK > 0 && len(local) > aq.topK {
		// The paper's protocol: each index node returns its k nearest
		// local results only — nearest in finish's total order, so which
		// of two equidistant objects makes the cut does not depend on the
		// order the scan found them in.
		slices.SortFunc(local, compareResults)
		local = local[:aq.topK]
	}
	return local
}

// nearer is the total order of results: by distance, then by object.
func nearer(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Obj < b.Obj
}

// compareResults is nearer as a three-way comparison, for
// slices.SortFunc.
func compareResults(a, b Result) int {
	switch {
	case nearer(a, b):
		return -1
	case nearer(b, a):
		return 1
	}
	return 0
}

// answerDone is answerLocal's tail: accounting, tracing, and result
// shipment for one locally answered subquery.
func (s *System) answerDone(n *IndexNode, aq *activeQuery, q query.Region, hops int, tok int, local []Result, ncands int) {
	aq.stats.Candidates += ncands
	nodeID := n.node.ID()
	aq.trace.add(TraceEvent{At: s.rt.Now(), Node: nodeID, Action: TraceAnswer,
		PreKey: q.PreKey, PreLen: q.PreLen, Hops: hops,
		Candidates: ncands, Returned: len(local)})
	if nodeID == aq.srcID {
		// The querier is itself an index node for this region.
		s.mergeResult(aq, nodeID, local, tok)
		return
	}
	var bytes int
	if s.cfg.EncodeWire && aq.ix.MaxDist > 0 {
		// Real binary encoding: distances are quantized against the
		// index's maximum distance (rounded up, never understated).
		entries := make([]wire.ResultEntry, len(local))
		for i, r := range local {
			entries[i] = wire.ResultEntry{Obj: int32(r.Obj), Dist: r.Dist}
		}
		data, err := wire.EncodeResult(entries, aq.ix.MaxDist)
		if err == nil {
			if decoded, derr := wire.DecodeResult(data, aq.ix.MaxDist); derr == nil {
				for i, e := range decoded {
					local[i] = Result{Obj: ObjectID(e.Obj), Dist: e.Dist}
				}
			}
			bytes = len(data)
		} else {
			bytes = s.cfg.Msg.ResultMsgBytes(len(local))
		}
	} else {
		bytes = s.cfg.Msg.ResultMsgBytes(len(local))
	}
	aq.stats.ResultMsgs++
	aq.stats.ResultBytes += int64(bytes)
	if s.cfg.Retry.Enabled() {
		s.sendResultReliably(n, aq, nodeID, local, q, tok, bytes)
		return
	}
	s.net.SendOrFail(n.node, aq.srcID, chord.KindResult, bytes, func(*chord.Node) {
		s.mergeResult(aq, nodeID, local, tok)
	}, func() {
		// The querier itself left (only possible under heavy churn).
		s.dropSubquery(aq, q, tok)
	})
}

// sendResultReliably ships one result message to the querier with the
// ack/timeout/retry state machine. Unlike subqueries the destination is
// fixed — a result only makes sense at the querier — so exhausted
// retries (the querier or the answering node died) surface as a dropped
// subquery.
func (s *System) sendResultReliably(n *IndexNode, aq *activeQuery, from chord.ID, local []Result, q query.Region, tok int, bytes int) {
	delivered := false
	var send func(attempt int)
	send = func(attempt int) {
		if attempt > 0 {
			s.RetriesIssued++
			aq.stats.Retries++
			aq.stats.ResultMsgs++
			aq.stats.ResultBytes += int64(bytes)
		}
		timer := s.rt.AfterFunc(s.retryTimeout(attempt), func() {
			if delivered {
				return
			}
			if aq.stale(tok) {
				delivered = true // settled elsewhere: stop retrying
				return
			}
			if attempt >= s.cfg.Retry.MaxRetries || !n.node.Alive() {
				delivered = true
				s.dropSubquery(aq, q, tok)
				return
			}
			send(attempt + 1)
		})
		s.net.SendOrFail(n.node, aq.srcID, chord.KindResult, bytes, func(dst *chord.Node) {
			s.net.SendOrFail(dst, n.node.ID(), chord.KindAck, retryAckBytes, func(*chord.Node) {
				timer.Stop()
			}, nil)
			if delivered {
				return // duplicate from a premature timeout
			}
			delivered = true
			if attempt > 0 {
				s.RecoveredSubqueries++
			}
			s.mergeResult(aq, from, local, tok)
		}, nil)
	}
	send(0)
}

// mergeResult runs at the querier when one index node's answer
// arrives. Settling the token first makes the merge idempotent: a
// hedged duplicate or post-deadline straggler is ignored entirely, so
// every outstanding region is merged exactly once.
func (s *System) mergeResult(aq *activeQuery, from chord.ID, local []Result, tok int) {
	if aq.finished {
		return // straggler after deadline expiry
	}
	if !aq.settle(tok) {
		return // hedged duplicate: the other copy already answered
	}
	s.unsuspect(from)
	now := s.rt.Now()
	if !aq.gotFirst {
		aq.gotFirst = true
		aq.stats.FirstResult = now
	}
	aq.answered[from] = true
	for _, r := range local {
		if prev, ok := aq.results[r.Obj]; !ok || r.Dist < prev {
			aq.results[r.Obj] = r.Dist
		}
	}
	aq.stats.LastResult = now
	if aq.pending == 0 {
		s.finish(aq)
	}
}

// dropSubquery accounts a lost subquery: the region joins the query's
// Uncovered list — so the caller sees exactly which part of the index
// space went unanswered instead of a silently short result — and the
// query completes if it was the last one outstanding.
func (s *System) dropSubquery(aq *activeQuery, reg query.Region, tok int) {
	if aq.finished {
		return
	}
	if aq.tracking() && !aq.lastChain(tok) {
		return // another delivery chain (a hedge) may still answer
	}
	if !aq.settle(tok) {
		return // a hedged duplicate already answered this region
	}
	s.DroppedSubqueries++
	aq.dropped++
	aq.uncovered = append(aq.uncovered, reg.Clone())
	if aq.pending == 0 {
		s.finish(aq)
	}
}

func (s *System) finish(aq *activeQuery) {
	if aq.finished {
		return
	}
	aq.finished = true
	if aq.admitted {
		s.active-- // release the admission-gate slot
	}
	if aq.deadline != nil {
		aq.deadline.Stop()
	}
	out := make([]Result, 0, len(aq.results))
	//lint:allow maporder the sort below totally orders results (Dist, then Obj)
	for obj, d := range aq.results {
		out = append(out, Result{Obj: obj, Dist: d})
	}
	slices.SortFunc(out, compareResults)
	if aq.topK > 0 && len(out) > aq.topK {
		out = out[:aq.topK]
	}
	if !aq.gotFirst {
		// No results arrived (all dropped); pin times to issue time.
		aq.stats.FirstResult = aq.stats.Issued
		aq.stats.LastResult = aq.stats.Issued
	}
	aq.stats.IndexNodes = len(aq.answered)
	if aq.done != nil {
		aq.done(&QueryResult{
			Results:           out,
			Stats:             aq.stats,
			Trace:             aq.trace,
			Complete:          aq.dropped == 0 && !aq.expired,
			DroppedSubqueries: aq.dropped,
			Uncovered:         aq.uncovered,
		})
	}
}

// ix returns the query's index scheme.
func (s *System) ix(aq *activeQuery) *Index { return aq.ix }

// ring maps an unrotated prefix key to its on-ring position for the
// query's index.
func (s *System) ring(aq *activeQuery, prekey lph.Key) chord.ID {
	return aq.ix.Part.Ring(prekey)
}

// NaiveRangeQuery is the §3.3 strawman the paper argues against: the
// querier decomposes the range into per-node subqueries and performs
// an independent Chord lookup + direct query message for each
// responsible node. Its cost scales with query selectivity; the
// embedded-tree router shares prefixes instead. Results are identical;
// only the message complexity differs.
func (s *System) NaiveRangeQuery(indexName string, srcID chord.ID, payload any, center []float64, r float64, opts QueryOpts, done func(*QueryResult)) error {
	ix, err := s.lookupIndex(indexName)
	if err != nil {
		return err
	}
	src, ok := s.nodes[srcID]
	if !ok {
		return fmt.Errorf("core: unknown source node %#x", srcID)
	}
	region, err := query.Around(ix.Part, center, r)
	if err != nil {
		return err
	}
	// Decompose until every subregion's key span has a single owner.
	// The querier cannot know ownership, so it refines pessimistically:
	// split to sibling cuboids and stop when a lookup-resolved owner
	// covers the span (each subregion costs one full Chord lookup).
	s.nextQ++
	aq := &activeQuery{
		id:       s.nextQ,
		ix:       ix,
		payload:  payload,
		r:        r,
		topK:     opts.TopK,
		srcID:    srcID,
		results:  make(map[ObjectID]float64),
		answered: make(map[chord.ID]bool),
		done:     done,
	}
	aq.stats.Issued = s.rt.Now()

	var pieces []query.Region
	var decompose func(q query.Region)
	decompose = func(q query.Region) {
		lo, hi := lph.CuboidSpan(q.PreKey, q.PreLen)
		ringLo := ix.Part.Ring(lo)
		ownerLo, errLo := s.net.SuccessorID(ringLo)
		// The span [lo, hi) has a single owner iff the successor of its
		// first key reaches at least its last key clockwise. (Comparing
		// successor(lo) with successor(hi-1) alone is fooled by spans
		// that wrap the whole ring, e.g. an unrefined prefix.)
		spanLen := hi - lo // wraps to 0 for the whole ring
		single := errLo == nil && (s.net.Size() == 1 ||
			(spanLen != 0 && chord.Dist(ringLo, ownerLo) >= spanLen-1))
		if single || q.PreLen == lph.M {
			pieces = append(pieces, q)
			return
		}
		for _, sq := range query.Split(ix.Part, q, q.PreLen+1) {
			decompose(sq)
		}
	}
	decompose(region)
	if len(pieces) == 0 {
		s.finish(aq)
		return nil
	}
	dl := opts.Deadline
	if dl == 0 {
		dl = s.cfg.Deadline
	}
	if dl > 0 || s.cfg.Hedge.Enabled() {
		aq.outstanding = make([]pendingRegion, 0, len(pieces))
	}
	toks := make([]int, len(pieces))
	for i, sq := range pieces {
		toks[i] = aq.newToken(sq)
	}
	if dl > 0 {
		aq.deadline = s.rt.AfterFunc(dl, func() { s.expireQuery(aq) })
	}
	k := ix.Part.K()
	for i, sq := range pieces {
		sq, tok := sq, toks[i]
		rk := ix.Part.Ring(sq.PreKey)
		// One full Chord lookup per piece, then one direct query
		// message to the owner.
		src.node.FindSuccessor(rk, s.cfg.Msg.QueryMsgBytes(1, k), func(owner chord.ID, hops int) {
			bytes := s.cfg.Msg.QueryMsgBytes(1, k)
			aq.stats.QueryMsgs += hops + 1
			aq.stats.QueryBytes += int64(bytes * (hops + 1))
			answered := false // idempotence against duplicated query frames
			s.net.SendOrFail(src.node, owner, chord.KindQuery, bytes, func(dst *chord.Node) {
				if answered {
					return
				}
				answered = true
				s.answerLocal(s.nodes[dst.ID()], aq, sq, hops+1, tok)
			}, func() {
				if answered {
					return
				}
				answered = true
				s.dropSubquery(aq, sq, tok)
			})
		})
	}
	return nil
}
