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
	"landmarkdht/internal/wire"
)

// activeQuery tracks one in-flight range query across the system. It is
// also the query's arena (arena.go): the records, cubes and result
// slices its path hands out, and the merge maps, all reused by the next
// query once holds has fallen to zero after finish.
type activeQuery struct {
	sys     *System
	gen     uint32 // bumped at every release
	holds   int    // what can still reach the query; see arena.go
	ix      *Index
	payload any
	r       float64
	topK    int
	srcID   chord.ID
	stats   QueryStats
	// pending counts subqueries whose results have not yet reached
	// the querier; the query completes when it hits zero.
	pending int
	// results and answered are the merge state, cleared and kept at
	// release.
	results  map[ObjectID]float64
	answered map[chord.ID]bool
	done     func(*QueryResult)
	finished bool
	gotFirst bool
	trace    *Trace
	// naive marks a query of the naive router (NaiveRangeQuery): each of
	// its messages is answered at the node it reaches.
	naive bool
	// Resilience bookkeeping. toks is the token table: every subquery
	// region holds a token, its index here, from the moment it is
	// shipped until it settles — answered or dropped — once. Settlement
	// is O(1) and idempotent, which is what lets hedged duplicates,
	// retransmissions and post-deadline stragglers arrive without
	// corrupting the pending count or the result set.
	toks      []token
	dropped   int
	uncovered []query.Region
	expired   bool
	deadline  *timer
	// admitted marks queries counted by the admission gate; finish
	// releases their slot. Queries issued outside the gate (the naive
	// router) never set it.
	admitted bool
	// The arena: every cube of a split half or refined sibling, the
	// message records handed out (qmsgs[:nq], rmsgs[:nr]) and the
	// results they carry.
	cubes  query.Cubes
	qmsgs  []*queryMsg
	nq     int
	rmsgs  []*resultMsg
	nr     int
	resBuf []Result
}

// token is one subquery region's entry in its query's token table:
// the region it stands for (refined in place as routing narrows it, so
// a deadline reports the region actually outstanding), whether it is
// still unsettled, and chains, the independent delivery attempts able
// to answer it: 1 for the original shipment, +1 per hedge. A loss only
// settles the token as dropped when its last chain dies.
type token struct {
	reg    query.Region
	chains int
	live   bool
}

// pendingRegion is one region a routing step ships, with its token.
// hop, when routed is set, is the next hop routeAt already chose for
// the region's prefix key.
type pendingRegion struct {
	tok    int
	reg    query.Region
	hop    chord.ID
	routed bool
}

// newToken registers one more outstanding subquery region and returns
// its settlement token.
func (aq *activeQuery) newToken(reg query.Region) int {
	aq.pending++
	aq.toks = append(aq.toks, token{reg: reg, chains: 1, live: true})
	return len(aq.toks) - 1
}

// settle resolves a token, reporting false when it was already settled
// (a hedged duplicate or a stale retransmission) — the caller must
// then ignore the answer entirely.
func (aq *activeQuery) settle(tok int) bool {
	t := &aq.toks[tok]
	if !t.live {
		return false
	}
	t.live = false
	aq.pending--
	return true
}

// stale reports whether work on a token is moot: the query finished
// (deadline expiry) or the token settled elsewhere (an answer arrived,
// a hedge won).
func (aq *activeQuery) stale(tok int) bool {
	return aq.finished || !aq.toks[tok].live
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
// The call only schedules work; drive the runtime to completion.
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
	if s.cfg.MaxActiveQueries > 0 && s.active >= s.cfg.MaxActiveQueries {
		// Admission control: the system is saturated, so the query is
		// rejected up front with an honest incomplete result — its whole
		// region is Uncovered and the rejection is counted. Nothing is
		// silently lost and no work is queued.
		region, err := query.Around(ix.Part, center, r)
		if err != nil {
			return err
		}
		s.AdmissionRejected++
		now := s.rt.Now()
		res := &QueryResult{
			Complete:  false,
			Uncovered: []query.Region{region},
			Stats:     QueryStats{Issued: now, FirstResult: now, LastResult: now},
		}
		if done != nil {
			s.rt.Schedule(0, func() { done(res) })
		}
		return nil
	}
	aq, region, err := s.newQuery(ix, srcID, payload, center, r, opts, done)
	if err != nil {
		return err
	}
	aq.admitted = true
	s.active++
	tok := aq.newToken(region)
	s.armDeadline(aq, opts)
	s.routeAt(src, aq, region, 0, tok)
	s.letGo(aq)
	return nil
}

// newQuery starts the record of one query issued at srcID, in an idle
// arena, and builds its region there. The query comes back held by the
// caller, which lets go once it has issued it; on error it is already
// released.
func (s *System) newQuery(ix *Index, srcID chord.ID, payload any, center []float64, r float64, opts QueryOpts, done func(*QueryResult)) (*activeQuery, query.Region, error) {
	aq := s.takeQuery()
	aq.holds = 1
	region, err := aq.cubes.Around(ix.Part, center, r)
	if err != nil {
		aq.finished = true
		s.letGo(aq)
		return nil, query.Region{}, err
	}
	aq.ix, aq.payload, aq.r, aq.topK, aq.srcID, aq.done = ix, payload, r, opts.TopK, srcID, done
	if opts.Trace {
		aq.trace = &Trace{}
	}
	aq.stats.Issued = s.rt.Now()
	return aq, region, nil
}

// armDeadline ends the query at its deadline — QueryOpts.Deadline, or
// else Config.Deadline — if it has one.
func (s *System) armDeadline(aq *activeQuery, opts QueryOpts) {
	dl := opts.Deadline
	if dl == 0 {
		dl = s.cfg.Deadline
	}
	if dl > 0 {
		aq.deadline = s.arm(aq, dl, deadlineTimer, nil, nil)
	}
}

// expireQuery ends a query at its deadline: the regions still
// outstanding become the Uncovered list and the query finishes with
// whatever results arrived, honestly marked incomplete.
func (s *System) expireQuery(aq *activeQuery) {
	if aq.finished {
		return
	}
	aq.expired = true
	for _, t := range aq.toks {
		if t.live {
			aq.uncovered = append(aq.uncovered, t.reg.Clone())
		}
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
	list := [2]pendingRegion{{tok: tok, reg: q}}
	nl := 1
	var subs [2]query.Region
	switch {
	case q.PreLen == lph.M:
		// One key: nothing left to split.
	case query.SplitInto(&subs, aq.ix.Part, q, q.PreLen+1, &aq.cubes) == 1:
		// The query lies in one half: forward the refined query
		// (equivalent to forwarding q; the prefix is just longer).
		aq.toks[tok].reg = subs[0]
		list[0].reg = subs[0]
	default:
		n1 := n.node.NextHop(s.ring(aq, subs[0].PreKey))
		n2 := n.node.NextHop(s.ring(aq, subs[1].PreKey))
		if n1 == n2 {
			// Both halves share the next hop: ship the whole query
			// onward as one unit (lowest-common-ancestor routing). The
			// lower half keeps q's prefix, so n2 is the whole query's hop.
			list[0].hop, list[0].routed = n2, true
		} else {
			// One region became two.
			aq.toks[tok].reg = subs[0]
			tok2 := aq.newToken(subs[1])
			list = [2]pendingRegion{
				{tok: tok, reg: subs[0], hop: n1, routed: true},
				{tok: tok2, reg: subs[1], hop: n2, routed: true},
			}
			nl = 2
		}
	}
	s.dispatch(n, aq, list[:nl], hops)
}

// sqUnit tracks one subquery region across delivery attempts. The
// delivered flag makes the receive path idempotent: duplicates caused
// by premature timeouts or lost acknowledgements are ignored, so each
// unit is routed, refined or answered once.
type sqUnit struct {
	reg       query.Region
	tok       int
	delivered bool
}

// queryMsg is one query message: the subquery units it carries and all
// its receiver needs, sent as one record to recvQuery (or lostQuery),
// and acknowledged, under Config.Retry, as the same record. routeAt
// ships at most two regions per hop, so a message carries at most two
// units: the record holds the ones it ships first inline, in own, and
// points at them from units. A retransmission's units point into the
// original message's own instead, so every attempt at a region shares
// one delivered flag; a hedge owns fresh copies (hedgeFire). Records
// come from the query's arena, so a retransmission's original outlives
// it.
type queryMsg struct {
	rec
	from      *IndexNode
	dest      chord.ID
	surrogate bool
	hops      int
	attempt   int
	hedge     bool
	own       [2]sqUnit
	units     [2]*sqUnit
	nunits    int
	// payload is the message's wire encoding (Config.EncodeWire).
	payload []byte
	// timer is the retransmission timer (Config.Retry) while armed.
	timer *timer
}

// add appends a fresh unit, owned by the message.
func (m *queryMsg) add(reg query.Region, tok int) {
	m.own[m.nunits] = sqUnit{reg: reg, tok: tok}
	m.units[m.nunits] = &m.own[m.nunits]
	m.nunits++
}

// carry appends a unit owned elsewhere (a retransmission's).
func (m *queryMsg) carry(u *sqUnit) {
	m.units[m.nunits] = u
	m.nunits++
}

func (m *queryMsg) live() []*sqUnit { return m.units[:m.nunits] }

// dropUndelivered gives up every unit no copy has delivered yet.
func (m *queryMsg) dropUndelivered() {
	for _, u := range m.live() {
		if !u.delivered {
			u.delivered = true
			m.from.sys.dropSubquery(m.aq, u.reg, u.tok)
		}
	}
}

// destKey identifies one dispatch destination and the mode the query
// is delivered in there (routing vs. surrogate refinement).
type destKey struct {
	id        chord.ID
	surrogate bool
}

// outbox collects the query messages one step sends — at most two, one
// per destination — in first-seen destination order, which keeps the
// schedule deterministic.
type outbox struct {
	msgs [2]*queryMsg
	n    int
}

// find returns the message bound for d, or nil.
func (o *outbox) find(d destKey) *queryMsg {
	for _, m := range o.msgs[:o.n] {
		if m.dest == d.id && m.surrogate == d.surrogate {
			return m
		}
	}
	return nil
}

// open adds a message for a destination find did not know.
func (o *outbox) open(m *queryMsg) *queryMsg {
	o.msgs[o.n] = m
	o.n++
	return m
}

func (o *outbox) ship(s *System) {
	for _, m := range o.msgs[:o.n] {
		s.ship(m)
	}
}

// dispatch groups subqueries by destination and ships each group as a
// single query message (the byte model charges per subquery), in
// first-seen destination order. A region's next hop is the one routeAt
// chose when it has one; OwnsKey still decides first.
func (s *System) dispatch(n *IndexNode, aq *activeQuery, list []pendingRegion, hops int) {
	var out outbox
	for _, sq := range list {
		rk := s.ring(aq, sq.reg.PreKey)
		if n.node.OwnsKey(rk) {
			// This node is itself the surrogate for the subquery.
			s.surrogateRefine(n, aq, sq.reg, hops, sq.tok)
			continue
		}
		nh := sq.hop
		if !sq.routed {
			nh = n.node.NextHop(rk)
		}
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
		m := out.find(d)
		if m == nil {
			m = out.open(aq.newQueryMsg(n, d, hops))
		}
		m.add(sq.reg, sq.tok)
	}
	out.ship(s)
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

// ship transmits one query message. Attempt 0 is the original
// transmission. With the reliability layer off this is fire-and-forget:
// a loss surfaces through lostQuery and the units are dropped. With it
// on, the receiver acknowledges the message; if the ack does not arrive
// within the retransmission timeout, shipTimeout re-resolves each
// still-undelivered unit's owner and retransmits with exponential
// backoff. Either way the message runs the one handler table
// handlers.query. A hedged duplicate is traced as such and never arms
// its own hedge timer (hedges do not cascade).
func (s *System) ship(m *queryMsg) {
	aq, n := m.aq, m.from
	k := 0
	for _, u := range m.live() {
		if !u.delivered {
			m.units[k] = u
			k++
		}
	}
	m.nunits = k
	if k == 0 {
		return
	}
	var bytes int
	if s.cfg.EncodeWire {
		// Real binary encoding: the receiver works on the decoded
		// (quantization-widened) cubes.
		regions := make([]query.Region, k)
		for i, u := range m.live() {
			regions[i] = u.reg
		}
		data, err := wire.EncodeQuery(aq.ix.Part, wire.QueryMessage{
			Source:     uint32(aq.srcID),
			Subqueries: regions,
		})
		if err != nil {
			m.dropUndelivered()
			return
		}
		m.payload, bytes = data, len(data)
	} else {
		bytes = wire.QuerySize(k, aq.ix.Part.K())
	}
	aq.stats.QueryMsgs++
	aq.stats.QueryBytes += int64(bytes)
	action := TraceForward
	switch {
	case m.hedge:
		action = TraceHedge
		s.HedgesIssued += k
		aq.stats.Hedges += k
	case m.attempt > 0:
		action = TraceRetry
		s.RetriesIssued++
		aq.stats.Retries++
	}
	for _, u := range m.live() {
		aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: action,
			PreKey: u.reg.PreKey, PreLen: u.reg.PreLen, Hops: m.hops, Dest: m.dest})
	}
	if m.attempt == 0 && !m.hedge && s.cfg.Hedge.Enabled() {
		s.armHedge(m)
	}
	if s.cfg.Retry.Enabled() {
		m.timer = s.arm(aq, s.retryTimeout(m.attempt), retryQueryTimer, m, nil)
	}
	s.send(n.node, m.dest, chord.KindQuery, bytes, &s.handlers.query, m)
}

// recvQuery delivers a query message at dst. Under Config.Retry it
// acknowledges the message first (duplicates too: the sender's timer
// must stop either way).
func recvQuery(dst *chord.Node, arg any) {
	m := arg.(*queryMsg)
	if m.released() {
		return
	}
	s := m.from.sys
	if s.cfg.Retry.Enabled() {
		s.send(dst, m.from.node.ID(), chord.KindAck, retryAckBytes, &s.handlers.ack, m)
	}
	m.deliver(dst)
	s.letGo(m.aq)
}

// acked stops the acknowledged message's retry timer.
func (m *queryMsg) acked() {
	s := m.from.sys
	if m.timer != nil {
		s.stop(m.timer)
		m.timer = nil
	}
	s.unsuspect(m.dest)
}

// deliver processes a query message at dst: each unit not yet delivered
// is routed onward or, in surrogate mode, refined — or, for the naive
// router, answered there.
func (m *queryMsg) deliver(dst *chord.Node) {
	s, aq := m.from.sys, m.aq
	in := s.nodes[dst.ID()]
	var use []query.Region // decoded cubes; nil = use the units' own regions
	if m.payload != nil {
		decoded, err := wire.DecodeQuery(aq.ix.Part, m.payload)
		if err != nil {
			m.dropUndelivered()
			return
		}
		use = decoded.Subqueries
	}
	for i, u := range m.live() {
		if u.delivered {
			continue // duplicate of an already-processed unit
		}
		u.delivered = true
		if aq.stale(u.tok) {
			continue // settled elsewhere: a hedge won, or the deadline hit
		}
		if m.attempt > 0 {
			s.RecoveredSubqueries++
		}
		reg := u.reg
		if use != nil {
			reg = use[i]
		}
		switch {
		case aq.naive:
			s.answerLocal(in, aq, reg, m.hops+1, u.tok)
		case m.surrogate:
			s.surrogateRefine(in, aq, reg, m.hops+1, u.tok)
		default:
			s.routeAt(in, aq, reg, m.hops+1, u.tok)
		}
	}
}

// lostQuery is a query message's loss. Fire-and-forget, its undelivered
// units are dropped; under Config.Retry the retry timer covers it.
func lostQuery(arg any) {
	m := arg.(*queryMsg)
	if m.released() {
		return
	}
	s := m.from.sys
	if !s.cfg.Retry.Enabled() {
		m.dropUndelivered()
	}
	s.letGo(m.aq)
}

// armHedge schedules the hedge check for a freshly shipped message: any
// of its units still outstanding after the hedge delay get a duplicate
// shipped toward their region owner's replica.
func (s *System) armHedge(m *queryMsg) {
	if m.aq.stats.Hedges >= s.cfg.Hedge.MaxPerQuery {
		return
	}
	s.arm(m.aq, s.cfg.Hedge.Delay, hedgeTimer, m, nil)
}

// hedgeFire runs when a message's hedge delay elapses. Each unit whose
// token is still outstanding is duplicated to the first replica of its
// region's current owner (the owner itself when the index keeps no
// replicas) in surrogate mode, and the original destination gains one
// unit of suspicion. Token settlement guarantees whichever copy
// answers first wins and the other is ignored.
func (s *System) hedgeFire(orig *queryMsg) {
	n, aq := orig.from, orig.aq
	if aq.finished || !n.node.Alive() {
		return
	}
	var (
		out    outbox
		queued int
	)
	suspected := false
	for _, u := range orig.live() {
		if aq.stale(u.tok) {
			continue
		}
		if aq.stats.Hedges+queued >= s.cfg.Hedge.MaxPerQuery {
			break
		}
		if !suspected {
			suspected = true
			s.suspect(orig.dest)
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
		// A fresh unit: the original keeps its own delivered flag, the
		// shared token arbitrates which copy's answer counts. The extra
		// chain keeps a later primary-side loss from settling a token
		// this hedge can still answer.
		d := destKey{id: target, surrogate: true}
		m := out.find(d)
		if m == nil {
			m = out.open(aq.newQueryMsg(n, d, orig.hops))
			m.hedge = true
		}
		m.add(u.reg, u.tok)
		aq.toks[u.tok].chains++
		queued++
	}
	out.ship(s)
}

// shipTimeout runs when a query message's ack timer fires, or a naive
// piece's lookup is lost under Config.Retry: any units still
// undelivered are re-resolved to the current successor of their prefix
// key — under ReplicateAll placement, the first live replica of a
// crashed owner — and retransmitted, or dropped once retries are
// exhausted (or the sender itself died). suspect charges the silent
// destination one unit of suspicion; a lost lookup has none.
func (s *System) shipTimeout(orig *queryMsg, suspect bool) {
	n, aq := orig.from, orig.aq
	var (
		remaining [2]*sqUnit
		nr        int
	)
	for _, u := range orig.live() {
		if u.delivered {
			continue
		}
		if aq.stale(u.tok) {
			u.delivered = true // settled elsewhere: nothing left to retry
			continue
		}
		remaining[nr] = u
		nr++
	}
	if nr == 0 {
		return
	}
	if suspect {
		s.suspect(orig.dest)
	}
	if orig.attempt >= s.cfg.Retry.MaxRetries || !n.node.Alive() {
		for _, u := range remaining[:nr] {
			u.delivered = true
			aq.trace.add(TraceEvent{At: s.rt.Now(), Node: n.node.ID(), Action: TraceDrop,
				PreKey: u.reg.PreKey, PreLen: u.reg.PreLen, Hops: orig.hops})
			s.dropSubquery(aq, u.reg, u.tok)
		}
		return
	}
	// The successor of the prefix key owns it, so the retransmission is
	// delivered in surrogate mode regardless of how the original was
	// routed. Retransmissions go out in first-seen owner order.
	var out outbox
	for _, u := range remaining[:nr] {
		owner, err := s.net.SuccessorID(s.ring(aq, u.reg.PreKey))
		if err != nil {
			u.delivered = true
			s.dropSubquery(aq, u.reg, u.tok)
			continue
		}
		d := destKey{id: owner, surrogate: true}
		m := out.find(d)
		if m == nil {
			m = out.open(aq.newQueryMsg(n, d, orig.hops))
			m.attempt = orig.attempt + 1
		}
		m.carry(u)
	}
	out.ship(s)
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
	query.Refine(part, q, vid, &aq.cubes, func(sub query.Region) {
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
	// Scan into the system-wide scratch buffer: the candidate ids are
	// fully consumed below before any other scan can run (the engine is
	// single-threaded and Refine callbacks never re-enter the system);
	// the results go to the batch's scratch, which answerDone consumes.
	s.scanBuf = n.st.ScanIDs(aq.ix.Name, q, s.scanBuf[:0])
	s.answerDone(n, aq, q, hops, tok, refineLocal(aq, s.scanBuf, &s.refine), len(s.scanBuf))
}

// refineBatch is refineLocal's scratch: the exact distances of up to 64
// candidates, one Index.Refine call's worth, and the results of the
// last refineLocal.
type refineBatch struct {
	dist  [64]float64
	local []Result
}

// refineLocal applies exact-distance refinement (and the paper's
// per-node top-k cut) to a scan's candidate ids, up to 64 at a time
// through the index's Refine, and returns the results in candidate
// order: the hits of a range query, every candidate of a top-k one —
// nearest first, after the cut, when the cut removed any. The slice is
// b's scratch: the next call on b overwrites it.
func refineLocal(aq *activeQuery, ids []int32, b *refineBatch) []Result {
	local := b.local[:0]
	for len(ids) > 0 {
		n := min(len(ids), len(b.dist))
		hits := aq.ix.Refine(aq.payload, ids[:n], aq.r, b.dist[:n])
		if aq.topK > 0 {
			hits = math.MaxUint64 >> (64 - n) // the cut below keeps the nearest
		}
		for ; hits != 0; hits &= hits - 1 {
			i := bits.TrailingZeros64(hits)
			local = append(local, Result{Obj: ObjectID(ids[i]), Dist: b.dist[i]})
		}
		ids = ids[n:]
	}
	if aq.topK > 0 && len(local) > aq.topK {
		// The paper's protocol: each index node returns its k nearest
		// local results only — nearest in finish's total order, so which
		// of two equidistant objects makes the cut does not depend on the
		// order the scan found them in.
		slices.SortFunc(local, compareResults)
		local = local[:aq.topK]
	}
	b.local = local
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
// shipment for one locally answered subquery. local is refineLocal's
// scratch: the querier merges it at once, any other node copies it into
// a result message from the query's arena.
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
	m := aq.newResultMsg()
	m.from, m.q, m.tok = n, q, tok
	m.local = aq.takeResults(len(local))
	copy(m.local, local)
	bytes := wire.ResultSize(len(local))
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
					m.local[i] = Result{Obj: ObjectID(e.Obj), Dist: e.Dist}
				}
			}
			bytes = len(data)
		}
	}
	aq.stats.ResultMsgs++
	aq.stats.ResultBytes += int64(bytes)
	m.bytes = bytes
	s.sendResult(m)
}

// resultMsg is one result message: an index node's answer to one
// subquery, sent as one record to recvResult (or lostResult). Under
// Config.Retry each attempt is a record of its own, acknowledged as
// itself; the token says whether an earlier attempt already arrived.
type resultMsg struct {
	rec
	from    *IndexNode
	local   []Result
	q       query.Region
	tok     int
	bytes   int
	attempt int
	timer   *timer
}

// sendResult ships one attempt of a result message to the querier.
// Under Config.Retry it arms the ack/timeout/retry state machine
// (resultTimeout). Unlike subqueries the destination is fixed — a
// result only makes sense at the querier — so exhausted retries (the
// querier or the answering node died) surface as a dropped subquery.
func (s *System) sendResult(m *resultMsg) {
	aq := m.aq
	if m.attempt > 0 {
		s.RetriesIssued++
		aq.stats.Retries++
		aq.stats.ResultMsgs++
		aq.stats.ResultBytes += int64(m.bytes)
	}
	if s.cfg.Retry.Enabled() {
		m.timer = s.arm(aq, s.retryTimeout(m.attempt), retryResultTimer, nil, m)
	}
	s.send(m.from.node, aq.srcID, chord.KindResult, m.bytes, &s.handlers.result, m)
}

// recvResult merges the first attempt of a result to arrive. Under
// Config.Retry it acknowledges every attempt first (duplicates from a
// premature timeout too).
func recvResult(dst *chord.Node, arg any) {
	m := arg.(*resultMsg)
	if m.released() {
		return
	}
	s, aq := m.from.sys, m.aq
	if s.cfg.Retry.Enabled() {
		s.send(dst, m.from.node.ID(), chord.KindAck, retryAckBytes, &s.handlers.ack, m)
	}
	if !aq.stale(m.tok) {
		if m.attempt > 0 {
			s.RecoveredSubqueries++
		}
		s.mergeResult(aq, m.from.node.ID(), m.local, m.tok)
	}
	s.letGo(aq)
}

// lostResult is a result message's loss. Fire-and-forget, the answered
// subquery is dropped: the querier itself left (only possible under
// heavy churn) or the fault plan lost the message. Under Config.Retry
// the retry timer covers it.
func lostResult(arg any) {
	m := arg.(*resultMsg)
	if m.released() {
		return
	}
	s := m.from.sys
	if !s.cfg.Retry.Enabled() {
		s.dropSubquery(m.aq, m.q, m.tok)
	}
	s.letGo(m.aq)
}

// acked stops the acknowledged attempt's retry timer.
func (m *resultMsg) acked() {
	if m.timer != nil {
		m.from.sys.stop(m.timer)
		m.timer = nil
	}
}

// resultTimeout runs when a result attempt's ack timer fires: unless an
// attempt arrived or the token settled elsewhere, the result is sent
// again, or dropped once retries are exhausted or its sender died.
func (s *System) resultTimeout(m *resultMsg) {
	aq := m.aq
	switch {
	case aq.stale(m.tok):
	case m.attempt >= s.cfg.Retry.MaxRetries || !m.from.node.Alive():
		s.dropSubquery(aq, m.q, m.tok)
	default:
		next := aq.newResultMsg()
		next.from, next.local, next.q, next.tok = m.from, m.local, m.q, m.tok
		next.bytes, next.attempt = m.bytes, m.attempt+1
		s.sendResult(next)
	}
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
	if t := &aq.toks[tok]; t.live {
		if t.chains--; t.chains > 0 {
			return // another delivery chain (a hedge) may still answer
		}
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
		s.stop(aq.deadline)
		aq.deadline = nil
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
	aq, region, err := s.newQuery(ix, srcID, payload, center, r, opts, done)
	if err != nil {
		return err
	}

	// Decompose until every subregion's key span has a single owner.
	// The querier cannot know ownership, so it refines pessimistically:
	// split to sibling cuboids and stop when a lookup-resolved owner
	// covers the span (each subregion costs one full Chord lookup).
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
		s.letGo(aq)
		return nil
	}
	aq.naive = true
	// Every piece holds its token before any lookup starts, since a
	// lookup can end inside FindSuccessor; the query's first tokens are
	// numbered from 0, so piece i holds token i.
	for _, sq := range pieces {
		aq.newToken(sq)
	}
	s.armDeadline(aq, opts)
	bytes := wire.QuerySize(1, ix.Part.K())
	for tok, sq := range pieces {
		m := aq.newQueryMsg(src, destKey{}, 0)
		m.add(sq, tok)
		// One full Chord lookup per piece, then one direct query
		// message to the owner. The lookup carries the piece's message
		// and holds the query until it ends, in foundNaive or
		// lostNaiveLookup.
		aq.holds++
		src.node.FindSuccessor(ix.Part.Ring(sq.PreKey), bytes, &s.handlers.naiveLookup, m)
	}
	s.letGo(aq)
	return nil
}

// foundNaive ships a naive query message to the owner its lookup found
// as any query message is shipped, charging the query for the lookup's
// hops as query messages.
func foundNaive(owner chord.ID, hops int, arg any) {
	m := arg.(*queryMsg)
	if m.released() {
		return
	}
	s, aq := m.from.sys, m.aq
	aq.stats.QueryMsgs += hops
	aq.stats.QueryBytes += int64(wire.QuerySize(1, aq.ix.Part.K()) * hops)
	m.dest, m.hops = owner, hops
	s.ship(m)
	s.letGo(aq)
}

// lostNaiveLookup is the loss of a naive piece's lookup. Fire-and-forget,
// the piece is dropped; under Config.Retry it is retransmitted to its
// owner at once, as a timed-out query message would be.
func lostNaiveLookup(arg any) {
	m := arg.(*queryMsg)
	if m.released() {
		return
	}
	s := m.from.sys
	if s.cfg.Retry.Enabled() {
		s.shipTimeout(m, false)
	} else {
		m.dropUndelivered()
	}
	s.letGo(m.aq)
}
