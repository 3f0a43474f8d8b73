package netrt

import (
	"errors"
	"math/bits"
	"sort"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

// creditTotal is a query's initial credit. Credit is conserved: every
// split divides it into shares that sum exactly, and every share comes
// home in a Result or Drop frame — when returned+dropped equals the
// total, the query has terminated. 2⁶² leaves 62 halvings before a
// share could hit zero; real decompositions split a few dozen times.
const creditTotal = uint64(1) << 62

// forwardTTL is how many times a query's regions, or a mutation, may be
// forwarded: it bounds the bouncing that membership views in
// disagreement can cause, and no honest route on a full view comes near.
const forwardTTL = 48

// originQuery is the origin-side state of one running query.
type originQuery struct {
	qid        uint64
	total      uint64
	returned   uint64
	dropped    uint64
	droppedCnt int
	results    map[int32]float64
	deadline   runtime.Timer
	done       func(QueryOutcome, error)
}

// QueryOutcome is a finished query. Complete ⇒ Entries is the exact
// range-query answer over the corpus; otherwise it is an honest subset
// and Dropped counts the credit shares that came home unanswered (one
// per message that lost regions for good).
type QueryOutcome struct {
	Complete bool
	Dropped  int
	Entries  []ResultEntry
}

// startQuery begins a query at this node (executor only). done fires
// exactly once, on the executor, when all credit is home or the
// deadline expires.
//
//lint:context executor
func (n *Node) startQuery(qobj []byte, r float64, done func(QueryOutcome, error)) {
	reg, err := n.data.QueryRegion(qobj, r)
	if err != nil {
		done(QueryOutcome{}, err)
		return
	}
	n.nextQID++
	qid := n.nextQID
	oq := &originQuery{
		qid:     qid,
		total:   creditTotal,
		results: make(map[int32]float64),
		done:    done,
	}
	n.queries[qid] = oq
	oq.deadline = n.rt.AfterFunc(n.cfg.Deadline, func() { n.expire(qid) })
	n.process(&queryMsg{
		Origin: n.id, OriginAddr: n.addr, Epoch: n.epoch, QID: qid,
		Credit: creditTotal, Regions: []query.Region{reg}, QObj: qobj, R: r, TTL: forwardTTL,
	}, false)
}

// Query runs one range query from this node and blocks until it
// finishes or timeout elapses. Safe from any goroutine.
func (n *Node) Query(qobj []byte, r float64, timeout time.Duration) (QueryOutcome, error) {
	var out QueryOutcome
	var qerr error
	err := n.rt.Await(timeout, func(finish func()) error {
		n.startQuery(qobj, r, func(o QueryOutcome, err error) {
			out, qerr = o, err
			finish()
		})
		return nil
	})
	if err != nil {
		return out, err
	}
	return out, qerr
}

// leafRows is how many consecutive sorted positions of the columns
// share one leaf box (query.LeafBoxes). BenchmarkLocalQuery's fixture
// (57 409 entries, k = 6) reads 108.7 / 100.2 / 95.6 µs per query at
// 8 / 16 / 32 with its radius of 0.30, and 20.1 / 16.0 / 15.4 µs at a
// selective 0.12 (medians of six alternated rounds); bench's ring-scan
// reads 3391 / 3718 / 3761 ops/s and 0.458 / 0.423 / 0.410 CPU ms per
// query (four alternated rounds), and 64 read worse than 32 at 0.30.
// The value also fixes which entries a query tests
// (TestLocalQueryWorkPinned). A delta's body has leaves of the same
// size (delta.go).
const leafRows = 32

// hop is the regions of one message bound for one next hop. A message
// touches a handful of next hops, so a hop is found by scanning.
type hop struct {
	to      uint64
	regions []query.Region
}

func addHop(hops []hop, to uint64, reg query.Region) []hop {
	for i := range hops {
		if hops[i].to == to {
			hops[i].regions = append(hops[i].regions, reg)
			return hops
		}
	}
	return append(hops, hop{to: to, regions: []query.Region{reg}})
}

// share is what a message asks this node to answer against one delta —
// its own, or its copy of a down owner's: the regions whose surrogate is
// that delta's owner, and the last key of each one's local share.
type share struct {
	d       *delta
	regions []query.Region
	cuts    []lph.Key
}

func addShare(shares []share, d *delta, reg query.Region, cut lph.Key) []share {
	for i := range shares {
		if shares[i].d == d {
			shares[i].regions = append(shares[i].regions, reg)
			shares[i].cuts = append(shares[i].cuts, cut)
			return shares
		}
	}
	return append(shares, share{d: d, regions: []query.Region{reg}, cuts: []lph.Key{cut}})
}

// process executes one query message at this node (executor only): the
// port of the routing half of the protocol to direct-to-owner routing.
// With a full membership view the ring is permanently "stabilized", so
// instead of Chord hops a region goes straight to the successor of its
// key span, and Algorithm 5 (surrogate refinement) is evaluated where
// the view is: at the node a region is first handled — the origin for
// the query's root region — at the ring position of each owner in turn.
//
// The message's regions go through one worklist. A region not yet cut
// is cut at its owner's position (refine): its sub-cuboids rejoin the
// worklist, and the region leaves holding only its owner's local share.
// Then it goes where the owner is: set aside with the delta it is
// answered against when the owner is this node, or a down owner whose
// synced copy is held here; grouped by next hop otherwise — the owner,
// or a live replica of a down one. A region that arrived (from a peer,
// which cut it at the owner it saw) is answered up to its cut when
// this node owns it or serves its down owner's copy, and passed on
// unchanged to a live replica when it serves no copy; only a region
// whose first key another live member owns under this node's view is
// cut afresh, there, which may cover an answer twice (DESIGN §12.5 says
// when views in disagreement can still lose one). So, while views
// agree, a query's frames are one kindQuery from the origin to each
// member it touches and one kindResult back.
// The credit is split once, over each next hop, the one local answer
// and one drop if any region could not be routed, and the node emits
// one kindQuery per hop and at most one kindResult and one kindDrop.
//
//lint:context executor
func (n *Node) process(q *queryMsg, arrived bool) {
	// The sub-cuboids' cubes are dead once the message is handled, and a
	// node handles one message at a time.
	n.cubes.Reset()
	if q.TTL <= 0 {
		// Forwarding did not converge (membership views disagree under
		// churn). Return the credit as dropped: the origin terminates
		// honestly instead of hanging until the deadline.
		n.returnDrop(q, q.Credit, "ttl exhausted")
		return
	}
	part := n.data.Part()
	var (
		hops   []hop    // regions to forward, by next hop
		buf    [1]share // room for this node's own share without a heap allocation
		shares = buf[:0]
		lost   string // why some region could be neither answered nor routed
	)
	work := append([]query.Region(nil), q.Regions...)
	cut := 0 // work[:cut] are the message's regions that arrived cut
	if arrived {
		cut = len(work)
	}
	for len(work) > 0 {
		reg := work[len(work)-1]
		work = work[:len(work)-1]
		fresh := len(work) >= cut
		cut = min(cut, len(work))
		if len(reg.Cube) != part.K() || reg.PreLen < 0 || reg.PreLen > lph.M || lph.Prefix(reg.PreKey, reg.PreLen) != reg.PreKey {
			lost = "malformed region"
			continue
		}
		lo, _ := lph.CuboidSpan(reg.PreKey, reg.PreLen)
		owner := n.successor(uint64(part.Ring(lo)))
		down := owner != n.id && n.isDown(owner)
		if fresh || owner != n.id && !down {
			work = n.refine(reg, owner, work)
		}
		if !down {
			if owner == n.id {
				shares = addShare(shares, &n.mine, reg, n.cutAt(reg, owner))
			} else {
				hops = addHop(hops, owner, reg)
			}
			continue
		}
		// The owner is down. A synced copy of its delta, held here as one
		// of its replicas, answers the region's local share on the spot —
		// cut at the owner's ring position, as the owner would have, and
		// read from the columns every member holds, filtered by the copy.
		// This node is still in the owner's replica set, so every mutation
		// the owner applied since the sync was fanned out to it (a missed
		// one unsyncs the copy at the next advert), and mutations to a
		// down owner are refused (publish.go), so the copy is static while
		// the owner is dead — the failover answer is exact.
		if c := n.servingCopy(owner); c != nil {
			shares = addShare(shares, &c.delta, reg, n.cutAt(reg, owner))
			continue
		}
		// No copy to serve here: hand the cut region to a live replica
		// that may hold one. TTL bounds any ping-pong between unsynced
		// replicas.
		routed := false
		for _, t := range n.replicaTargets(owner) {
			if t != n.id && !n.isDown(t) {
				hops = addHop(hops, t, reg)
				routed = true
				break
			}
		}
		if !routed {
			lost = "owner down, no live replica"
		}
	}

	answers := len(shares) > 0
	parts := len(hops)
	if answers {
		parts++
	}
	if lost != "" {
		parts++
	}
	credits := splitCredit(q.Credit, parts)
	if credits == nil {
		n.returnDrop(q, q.Credit, "credit exhausted")
		return
	}
	// Forwards go out before the local scan so the next hops work while
	// this node does.
	for _, h := range hops {
		fq := *q
		fq.Regions, fq.Credit, fq.TTL = h.regions, credits[0], q.TTL-1
		credits = credits[1:]
		n.sendRaw(n.members[h.to], appendQuery(nil, &fq))
	}
	if lost != "" {
		n.returnDrop(q, credits[0], lost)
		credits = credits[1:]
	}
	if !answers {
		return
	}
	ents, err := n.answer(q, shares)
	if err != nil {
		n.returnDrop(q, credits[0], err.Error())
		return
	}
	n.sendResult(q, credits[0], ents)
}

// cutAt returns the top key of a region's local share at surrogate's
// ring position — Algorithm 5's cut: the surrogate's virtual id, or the
// top of the key space when the cuboid does not contain it and the
// whole cuboid is local (its lowest key's successor is the surrogate,
// which lies outside it, so no other member does either).
func (n *Node) cutAt(reg query.Region, surrogate uint64) lph.Key {
	vid := n.data.Part().Unring(lph.Key(surrogate))
	if !lph.SamePrefix(reg.PreKey, vid, reg.PreLen) {
		return ^lph.Key(0)
	}
	return vid
}

// refine runs the surrogate-refinement decomposition (Algorithm 5) of
// one region at surrogate's ring position: keys of the region's cuboid
// up to the cut (cutAt) are the surrogate's local share, and every
// maximal sub-cuboid above it (one per zero bit past the prefix;
// query.Refine, the decomposition core runs too) is clipped to the
// query cube, in a cube from the node's arena, and appended to work, to
// be routed to its own owner. The local shares and sub-cuboids of one
// query are therefore disjoint in key space: no entry is tested twice.
// The surrogate is the region's owner, wherever the region is cut: a
// live owner answers the share it is sent, and a down owner's share is
// answered from a replica's copy of its delta.
//
//lint:context executor
func (n *Node) refine(reg query.Region, surrogate uint64, work []query.Region) []query.Region {
	if vid := n.cutAt(reg, surrogate); vid != ^lph.Key(0) {
		query.Refine(n.data.Part(), reg, vid, &n.cubes, func(sub query.Region) { work = append(work, sub) })
	}
	return work
}

// splitCredit divides credit into parts shares that sum exactly to
// credit, each positive. nil when the credit cannot cover the parts.
func splitCredit(credit uint64, parts int) []uint64 {
	if parts <= 0 || credit < uint64(parts) {
		return nil
	}
	base := credit / uint64(parts)
	shares := make([]uint64, parts)
	for i := range shares {
		shares[i] = base
	}
	shares[0] += credit % uint64(parts)
	return shares
}

// leafState is what answer's leaves test against — the region, its cube
// laid out once per region for query.Box32.Mask, and the share's
// tombstones — and the batch of survivors waiting for their exact
// distances: sorted positions, in the order the leaves found them; and
// pt, the float64 point of a row in the cube's rounding band (inBand).
// The leaf closure captures it as one variable, not several: with the
// cube and the tombstones captured apart, go1.24 spilled a loop counter
// of the closure to the stack (+4–7 % cpu_ms_per_op on ring-scan,
// EXPERIMENTS "One delta"). A node keeps one, because answers run on its
// executor one at a time and the batch, handed to evaluator.Refine
// through an interface, would otherwise be moved to the heap by every
// answer.
type leafState struct {
	reg   query.Region
	box   query.Box32
	pt    []float64
	tombs map[int32]struct{}
	pos   [64]int32
	dist  [64]float64
	n     int
	xbox  query.Box // the region's cube, for a delta's float64 rows (answerExtras)
}

// answer resolves a message's local shares in one pass. Each region
// reads the boot columns' run of its prefix, up to its cut, through
// their leaf boxes — the cube is tested only under the boxes that meet
// it, the share's tombstones and the exact distance only on what the
// cube lets through — whether the delta is this node's or a down
// owner's copy: every member holds the same columns. A delta's extras
// then answer where a boot entry with their key would: inside a
// region's key run up to its cut, and inside its cube. They are kept in
// key order under leaf boxes too, so each region walks its stretch of
// them the same way (answerExtras). The walk hands out sorted
// positions and the objects are stored by sorted
// position, so the exact distances of a region's batches read the slab
// front to back; the corpus id is looked up only for what goes on the
// wire. Over-coverage under membership-view skew is harmless: the
// origin merges per object.
//
//lint:context executor
func (n *Node) answer(q *queryMsg, shares []share) ([]ResultEntry, error) {
	ev, err := n.data.Query(q.QObj)
	if err != nil {
		return nil, errBadQueryObject
	}
	cols := n.data.Cols()
	var ents []ResultEntry
	at := &n.leaves
	// flush computes the batch's exact distances in one evaluator.Refine
	// and appends the hits, in batch order.
	flush := func() {
		n.refined += uint64(at.n)
		for hits := ev.Refine(at.pos[:at.n], q.R, at.dist[:at.n]); hits != 0; hits &= hits - 1 {
			i := bits.TrailingZeros64(hits)
			ents = append(ents, ResultEntry{Obj: cols.ids[at.pos[i]], Dist: at.dist[i]})
		}
		at.n = 0
	}
	// A leaf run's float32 points are tested against the cube 64 at a
	// time, in one call that says which rows are surely inside (inner)
	// and which may be (outer); the band between the two is decided on
	// the float64 points. The rows inside that are not tombstoned join
	// the batch, in position order, which is refined whenever it is
	// full — across leaves and regions, so a block of the distance kernel
	// is rarely short.
	leaf := func(a, b int) {
		n.tested += uint64(b - a)
		for ; a < b; a += 64 {
			rows := min(b-a, 64)
			outer, in := at.box.Mask(cols.rows(a, rows), rows)
			if band := outer &^ in; band != 0 {
				in |= n.inBand(a, band)
			}
			if len(at.tombs) > 0 {
				for m := in; m != 0; m &= m - 1 {
					if _, dead := at.tombs[cols.ids[a+bits.TrailingZeros64(m)]]; dead {
						in &^= m & -m
					}
				}
			}
			for ; in != 0; in &= in - 1 {
				at.pos[at.n] = int32(a + bits.TrailingZeros64(in))
				if at.n++; at.n == len(at.pos) {
					flush()
				}
			}
		}
	}
	for _, s := range shares {
		at.tombs = s.d.tombs
		for i, reg := range s.regions {
			at.reg = reg
			at.box.Set(reg.Cube)
			a, b := reg.Run(cols.keys)
			cols.boxes.Walk(at.box.Outer(), a, min(b, cols.above(s.cuts[i])), leaf)
		}
		if len(s.d.extras) == 0 {
			continue
		}
		// The share's boot entries go out before its extras, as they are
		// found.
		flush()
		ents = n.answerExtras(ev, q.R, s, ents)
	}
	flush()
	at.reg, at.tombs = query.Region{}, nil // hold on to no cube and no delta past the message
	return ents, nil
}

// inBand returns the rows of band, a mask over the rows from sorted
// position a on, whose float64 points the current region contains. They
// are the rows within a float32 rounding of one of its bounds, where
// the float32 test cannot tell (query.Box32): each point is mapped
// again (corpus.Point) and tested as Region.Contains tests it, so an
// answer tests exactly the points a float64 column would. They are
// rare: five rows in the 256 queries of BenchmarkLocalQuery's cycle.
//
//lint:context executor
func (n *Node) inBand(a int, band uint64) uint64 {
	at, cols := &n.leaves, n.data.Cols()
	if len(at.pt) != cols.k {
		at.pt = make([]float64, cols.k)
	}
	var in uint64
	for m := band; m != 0; m &= m - 1 {
		j := a + bits.TrailingZeros64(m)
		if at.reg.Contains(n.data.Point(int(cols.ids[j]), at.pt)) {
			in |= m & -m
		}
	}
	return in
}

// answerExtras appends to ents the share's extras that answer one of
// its regions and lie within r of the query ev decoded. Each region
// reads the stretch of the delta's body between its cuboid's first key
// and the lower of its last key and its cut — two binary searches —
// through the body's leaf boxes, the cube tested 64 float64 rows a
// query.Box.Mask call, exactly as Region.Contains tests a point; then
// the tail, in one more call and a check of the keys that pass. The
// rows inside join a batch of up to 64, refined in one
// evaluator.RefineExtras call, and the hits are appended in the order
// the rows were found. Extras are counted in tested and refined as boot
// entries are: the rows under the boxes that meet the cube and every
// tail row, and every exact distance.
//
//lint:context executor
func (n *Node) answerExtras(ev evaluator, r float64, s share, ents []ResultEntry) []ResultEntry {
	d, at := s.d, &n.leaves
	flush := func() {
		n.refined += uint64(at.n)
		for hits := ev.RefineExtras(&d.extraCols, at.pos[:at.n], r, at.dist[:at.n]); hits != 0; hits &= hits - 1 {
			i := bits.TrailingZeros64(hits)
			ents = append(ents, ResultEntry{Obj: d.ids[at.pos[i]], Dist: at.dist[i]})
		}
		at.n = 0
	}
	add := func(in uint64, a int) {
		for ; in != 0; in &= in - 1 {
			at.pos[at.n] = int32(a + bits.TrailingZeros64(in))
			if at.n++; at.n == len(at.pos) {
				flush()
			}
		}
	}
	leaf := func(a, b int) {
		n.tested += uint64(b - a)
		for ; a < b; a += 64 {
			add(at.xbox.Mask(d.pts[a*d.k:], min(b-a, 64)), a)
		}
	}
	tail := d.rows() - d.body
	for i, reg := range s.regions {
		a, b, lo, top := d.stretch(reg, s.cuts[i])
		if top < lo {
			continue
		}
		at.xbox.Set(reg.Cube)
		d.boxes.Walk(reg.Cube, a, b, leaf)
		if tail == 0 {
			continue
		}
		n.tested += uint64(tail)
		in, keys := at.xbox.Mask(d.pts[d.body*d.k:], tail), d.keys[d.body:]
		for m := in; m != 0; m &= m - 1 {
			if key := keys[bits.TrailingZeros64(m)]; key < lo || key > top {
				in &^= m & -m
			}
		}
		add(in, d.body)
	}
	flush()
	at.xbox = query.Box{} // hold on to no cube past the message
	return ents
}

var errBadQueryObject = errors.New("bad query object")

// maxResultEntries is the most entries one kindResult frame carries.
const maxResultEntries = (wire.MaxFramePayload - 1 - resultFixed) / resultEntryBytes

// sendResult returns this node's answer to one message, with its credit
// share, to the origin. An answer too large for one frame travels as
// several, the share split across them like any other credit: the link
// would shed an oversize frame, and the origin would wait out its
// deadline for credit that never comes home.
func (n *Node) sendResult(q *queryMsg, credit uint64, ents []ResultEntry) {
	if q.Origin == n.id {
		n.onReturn(q.Epoch, q.QID, credit, ents, false)
		return
	}
	frames := max(1, (len(ents)+maxResultEntries-1)/maxResultEntries)
	shares := splitCredit(credit, frames)
	if shares == nil {
		n.returnDrop(q, credit, "credit exhausted")
		return
	}
	for _, share := range shares {
		part := ents[:min(len(ents), maxResultEntries)]
		ents = ents[len(part):]
		n.sendRaw(q.OriginAddr, appendResult(nil,
			&resultMsg{Epoch: q.Epoch, QID: q.QID, Credit: share, From: n.id, Entries: part}))
	}
}

// returnDrop sends a credit share home unanswered.
func (n *Node) returnDrop(q *queryMsg, credit uint64, reason string) {
	if q.Origin == n.id {
		n.onReturn(q.Epoch, q.QID, credit, nil, true)
		return
	}
	n.sendRaw(q.OriginAddr, appendDrop(nil,
		&dropMsg{Epoch: q.Epoch, QID: q.QID, Credit: credit, From: n.id, Reason: reason}))
}

// onReturn books one credit share coming home (executor only). Late
// frames for finished or expired queries are ignored — their qid is
// gone from the table — and frames addressed to a previous process
// incarnation (epoch mismatch after a restart reset the qid counter)
// are discarded before they can corrupt an unrelated query.
//
//lint:context executor
func (n *Node) onReturn(epoch, qid, credit uint64, ents []ResultEntry, isDrop bool) {
	if epoch != n.epoch {
		return
	}
	oq := n.queries[qid]
	if oq == nil {
		return
	}
	if isDrop {
		oq.dropped += credit
		oq.droppedCnt++
	} else {
		oq.returned += credit
		for _, e := range ents {
			if d, ok := oq.results[e.Obj]; !ok || e.Dist < d {
				oq.results[e.Obj] = e.Dist
			}
		}
	}
	if oq.returned+oq.dropped >= oq.total {
		n.finishQuery(oq, oq.dropped == 0 && oq.returned == oq.total)
	}
}

// expire finishes a query whose deadline fired before all credit came
// home: the results so far are a correct subset, reported incomplete.
//
//lint:context executor
func (n *Node) expire(qid uint64) {
	oq := n.queries[qid]
	if oq == nil {
		return
	}
	n.finishQuery(oq, false)
}

// finishQuery completes one query exactly once: stop the deadline,
// drop the origin state, deliver merged entries sorted by object.
func (n *Node) finishQuery(oq *originQuery, complete bool) {
	oq.deadline.Stop()
	delete(n.queries, oq.qid)
	entries := make([]ResultEntry, 0, len(oq.results))
	for obj, d := range oq.results { //lint:allow maporder sorted immediately below
		entries = append(entries, ResultEntry{Obj: obj, Dist: d})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Obj < entries[j].Obj })
	oq.done(QueryOutcome{Complete: complete, Dropped: oq.droppedCnt, Entries: entries}, nil)
}
