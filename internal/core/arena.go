package core

import (
	"time"

	"landmarkdht/internal/chord"
)

// A query's arena (DESIGN.md §9.2). An activeQuery is reused: it holds
// the records, cubes, result slices and merge maps its path needs, and
// goes back to the System's free list once the query has finished and
// nothing that can reach it is still pending. What can reach it is
// counted in holds:
//
//   - every copy of one of its records in flight through
//     chord.Network.SendRecord (a query, a result or an ack), from the
//     send until the copy is delivered, lost or, being a fault
//     duplicate, dropped;
//   - every lookup of the naive router (NaiveRangeQuery), until it
//     finds its owner or is lost;
//   - every armed timer (retry, hedge, deadline), until it fires or is
//     stopped;
//   - the call that runs the query's code: RangeQuery while it issues
//     the query, and every handler above while it runs — a handler lets
//     go last, so nothing it calls can recycle the query under it.
//
// Releasing zeroes the query and its records and bumps its generation.
// A record remembers the generation it was handed out in, and a timer
// the generation it was armed in, so a late handler that finds its
// query recycled does nothing and is counted in StaleHandlers, and so is
// a hold let go twice. Exact holds keep both at zero.

// rec heads every record of a query's arena: the query, which owns the
// record for life, and the generation the record was handed out in.
type rec struct {
	aq  *activeQuery
	gen uint32
}

// released reports, and counts, a record its query no longer holds.
func (r *rec) released() bool {
	if r.gen == r.aq.gen {
		return false
	}
	r.aq.sys.StaleHandlers++
	return true
}

func (r *rec) header() *rec { return r }

// record is a query or result message as SendRecord's handlers see it.
// acked is what its acknowledgement does (Config.Retry).
type record interface {
	header() *rec
	acked()
}

// addCopy is Handlers.Copy for every record: one more copy in flight.
func addCopy(arg any) { arg.(record).header().aq.holds++ }

// endCopy ends one copy that carries nothing to do: a dropped duplicate
// or a lost ack, whose loss the acknowledged message's timer covers.
func endCopy(arg any) {
	if r := arg.(record).header(); !r.released() {
		r.aq.sys.letGo(r.aq)
	}
}

// recvAck delivers the acknowledgement of a query or result message.
func recvAck(_ *chord.Node, arg any) {
	r := arg.(record)
	if h := r.header(); !h.released() {
		r.acked()
		h.aq.sys.letGo(h.aq)
	}
}

// messageHandlers are what core's messages run: the SendRecord
// handlers of a range query's messages, of a publish's and of a region
// stream's, and the FindSuccessor handlers of a publish's lookup and a
// naive query's. Each message kind has one table, with or without
// Config.Retry: its Recv acknowledges only under Retry, and its Lost
// gives the message up only without it — under Retry the sender's
// timer covers the loss. A System builds its own in NewSystem rather
// than the package at init, so a binary that links this package
// without running a System does not link the message paths with it.
type messageHandlers struct {
	// A query message (of either router), a result message, and the
	// acknowledgement of either, which stops the sender's retry timer.
	query, result, ack chord.Handlers
	// The lookup that finds a naive query piece's owner.
	naiveLookup chord.Lookup
	// A publish's lookup, its entry message and that message's ack.
	publishLookup       chord.Lookup
	publish, publishAck chord.Handlers
	// A region stream's chunk and its acknowledgement; the stream's
	// idle round covers the loss of either.
	chunk, chunkAck chord.Handlers
}

func newMessageHandlers() messageHandlers {
	return messageHandlers{
		query:         chord.Handlers{Recv: recvQuery, Lost: lostQuery, Copy: addCopy, Drop: endCopy},
		result:        chord.Handlers{Recv: recvResult, Lost: lostResult, Copy: addCopy, Drop: endCopy},
		ack:           chord.Handlers{Recv: recvAck, Lost: endCopy, Copy: addCopy, Drop: endCopy},
		naiveLookup:   chord.Lookup{Found: foundNaive, Lost: lostNaiveLookup},
		publishLookup: chord.Lookup{Found: foundOwner, Lost: lostPublishLookup},
		publish:       chord.Handlers{Recv: recvPublish, Lost: lostPublish},
		publishAck:    chord.Handlers{Recv: recvPublishAck},
		chunk:         chord.Handlers{Recv: recvChunk},
		chunkAck:      chord.Handlers{Recv: recvChunkAck},
	}
}

// send ships one copy of a query's record, held until it ends.
func (s *System) send(from *chord.Node, to chord.ID, kind chord.MsgKind, bytes int, h *chord.Handlers, r record) {
	r.header().aq.holds++
	s.net.SendRecord(from, to, kind, bytes, h, r)
}

// takeQuery pops an idle query, or makes one.
func (s *System) takeQuery() *activeQuery {
	if n := len(s.idle); n > 0 {
		aq := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return aq
	}
	s.arenas++
	return &activeQuery{sys: s, results: make(map[ObjectID]float64), answered: make(map[chord.ID]bool)}
}

// letGo ends one hold on aq. The last one, once aq has finished, returns
// it to the free list.
func (s *System) letGo(aq *activeQuery) {
	if aq.holds <= 0 {
		s.StaleHandlers++
		return
	}
	aq.holds--
	if aq.holds == 0 && aq.finished {
		s.release(aq)
	}
}

// release zeroes aq and its records, keeping the memory they own, bumps
// its generation and puts it on the free list. The answer (the result
// slice, Uncovered, the trace) went to the caller and is not kept.
func (s *System) release(aq *activeQuery) {
	for _, m := range aq.qmsgs[:aq.nq] {
		*m = queryMsg{rec: m.rec}
	}
	for _, m := range aq.rmsgs[:aq.nr] {
		*m = resultMsg{rec: m.rec}
	}
	aq.cubes.Reset()
	clear(aq.resBuf)
	clear(aq.results)
	clear(aq.answered)
	clear(aq.toks)
	*aq = activeQuery{
		sys:      aq.sys,
		gen:      aq.gen + 1,
		results:  aq.results,
		answered: aq.answered,
		toks:     aq.toks[:0],
		cubes:    aq.cubes,
		qmsgs:    aq.qmsgs,
		rmsgs:    aq.rmsgs,
		resBuf:   aq.resBuf[:0],
	}
	s.idle = append(s.idle, aq)
}

// QueryArenas reports how many query arenas the system has made and
// how many are idle on its free list; at quiescence the two are equal.
func (s *System) QueryArenas() (made, idle int) { return s.arenas, len(s.idle) }

// newQueryMsg hands out a zeroed query message bound for d.
func (aq *activeQuery) newQueryMsg(from *IndexNode, d destKey, hops int) *queryMsg {
	if aq.nq == len(aq.qmsgs) {
		aq.qmsgs = append(aq.qmsgs, &queryMsg{rec: rec{aq: aq}})
	}
	m := aq.qmsgs[aq.nq]
	aq.nq++
	m.gen = aq.gen
	m.from, m.dest, m.surrogate, m.hops = from, d.id, d.surrogate, hops
	return m
}

// newResultMsg hands out a zeroed result message.
func (aq *activeQuery) newResultMsg() *resultMsg {
	if aq.nr == len(aq.rmsgs) {
		aq.rmsgs = append(aq.rmsgs, &resultMsg{rec: rec{aq: aq}})
	}
	m := aq.rmsgs[aq.nr]
	aq.nr++
	m.gen = aq.gen
	return m
}

// takeResults returns room for n results from the arena.
func (aq *activeQuery) takeResults(n int) []Result {
	i := len(aq.resBuf)
	if i+n > cap(aq.resBuf) {
		aq.resBuf = make([]Result, 0, max(2*cap(aq.resBuf), n, 64))
		i = 0
	}
	aq.resBuf = aq.resBuf[:i+n]
	return aq.resBuf[i : i+n : i+n]
}

// timerKind is what a query timer does when it fires.
type timerKind uint8

const (
	retryQueryTimer  timerKind = iota // shipTimeout(qm)
	retryResultTimer                  // resultTimeout(rm)
	hedgeTimer                        // hedgeFire(qm)
	deadlineTimer                     // expireQuery(aq)
)

// timer is one armed query timer: the argument of its event. Timers are
// pooled on the System, not in an arena, because a stopped timer's event
// still runs (as a no-op) after its query may have been recycled; a
// timer returns to the pool when its event runs.
type timer struct {
	aq      *activeQuery
	gen     uint32
	kind    timerKind
	qm      *queryMsg
	rm      *resultMsg
	stopped bool
}

// arm starts a timer for aq, which it holds until it fires or is
// stopped.
func (s *System) arm(aq *activeQuery, delay time.Duration, kind timerKind, qm *queryMsg, rm *resultMsg) *timer {
	var t *timer
	if n := len(s.timers); n > 0 {
		t = s.timers[n-1]
		s.timers = s.timers[:n-1]
	} else {
		t = new(timer)
	}
	*t = timer{aq: aq, gen: aq.gen, kind: kind, qm: qm, rm: rm}
	aq.holds++
	s.rt.ScheduleArg(delay, runTimer, t)
	return t
}

// stop cancels an armed timer that has not fired: its event does
// nothing, and its hold ends now.
func (s *System) stop(t *timer) {
	t.stopped = true
	s.letGo(t.aq)
}

// runTimer is every query timer's event.
func runTimer(arg any) {
	t := arg.(*timer)
	aq, kind, qm, rm, stopped := t.aq, t.kind, t.qm, t.rm, t.stopped
	s := aq.sys
	live := t.gen == aq.gen
	*t = timer{}
	s.timers = append(s.timers, t)
	switch {
	case stopped:
		return
	case !live:
		s.StaleHandlers++
		return
	}
	switch kind {
	case retryQueryTimer:
		qm.timer = nil
		s.shipTimeout(qm, true)
	case retryResultTimer:
		rm.timer = nil
		s.resultTimeout(rm)
	case hedgeTimer:
		s.hedgeFire(qm)
	case deadlineTimer:
		aq.deadline = nil
		s.expireQuery(aq)
	}
	s.letGo(aq)
}
