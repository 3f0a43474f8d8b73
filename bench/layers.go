//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"landmarkdht/internal/core"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
	"landmarkdht/internal/runtime/netrt"
	"landmarkdht/internal/wal"
	"landmarkdht/internal/wire"
)

// The traced pass measures each layer from outside, through its public
// functions, on inputs shaped like the workload's: the same space,
// landmark count and radius, and a store holding as many entries as the
// workload's most loaded member. Counts that must repeat exactly are
// taken over the first exactOps operations of the sequence.
const (
	exactOps   = 200
	localOps   = 1000 // operations timed on the one-member node
	loopRounds = 5    // a loop metric is the median of this many rounds
	storeIndex = "bench"
	// never is a ticker period that does not fire within a run: with
	// gossip, heartbeats and anti-entropy silent, the in-process ring's
	// frame counts are exactly those of the operations driven.
	never = 1000 * time.Hour
)

// layerFixture is the embedding machinery and one member's store, built
// by the benchmark from the layers' own constructors.
type layerFixture struct {
	w     workload
	space metric.Space[metric.Vector]
	objs  []metric.Vector
	emb   *indexspace.Embedding[metric.Vector]
	part  *lph.Partitioner
	store *core.MemStore // the most loaded member's share of the corpus
	keys  []lph.Key
	ents  []core.Entry
	ring  []uint64 // member identities, for the decomposition replay
}

func newLayerFixture(w workload, share int, ring []uint64) (*layerFixture, error) {
	rng := rand.New(rand.NewSource(corpusSeed))
	f := &layerFixture{w: w, space: metric.EuclideanSpace("euclid", w.dim, 0, 1), ring: ring}
	f.objs = make([]metric.Vector, share)
	for i := range f.objs {
		f.objs[i] = randomVector(rng, w.dim)
	}
	lms, err := landmark.Greedy(rng, f.objs[:min(share, 2000)], w.landmarks, f.space.Dist)
	if err != nil {
		return nil, err
	}
	if f.emb, err = indexspace.New(f.space, lms); err != nil {
		return nil, err
	}
	if f.part, err = f.emb.Partitioner(false); err != nil {
		return nil, err
	}
	points, _ := f.emb.MapBatch(f.objs, nil)
	f.store = core.NewMemStore()
	f.keys = make([]lph.Key, share)
	f.ents = make([]core.Entry, share)
	for i, p := range points {
		f.keys[i] = f.part.MapPoint(p)
		f.ents[i] = core.Entry{Obj: core.ObjectID(i), Point: p}
	}
	if err := f.store.PutBatch(storeIndex, f.keys, f.ents); err != nil {
		return nil, err
	}
	return f, nil
}

// cube is the query hypercube of radius r around an index point.
func (f *layerFixture) cube(center []float64, r float64) []lph.Bounds {
	cube := make([]lph.Bounds, len(center))
	for j, c := range center {
		b := f.part.Bounds(j)
		cube[j] = lph.Bounds{Lo: b.Clamp(c - r), Hi: b.Clamp(c + r)}
	}
	return cube
}

// restriction is one query.Restrict call of the surrogate refinement.
type restriction struct {
	reg    query.Region
	prekey lph.Key
	prelen int
}

// restrictions lists the Restrict calls netrt's decomposition makes for
// reg at each member's ring position (Algorithm 5).
func (f *layerFixture) restrictions(reg query.Region, buf []restriction) []restriction {
	for _, id := range f.ring {
		vid := f.part.Unring(lph.Key(id))
		if !lph.SamePrefix(reg.PreKey, vid, reg.PreLen) {
			continue
		}
		for z := lph.FirstZeroBitAfter(vid, reg.PreLen); z != 0; z = lph.FirstZeroBitAfter(vid, z) {
			buf = append(buf, restriction{reg, lph.SetBit(lph.Prefix(vid, z-1), z), z})
		}
	}
	return buf
}

// refine keeps the candidates within the radius, by exact distance.
func (f *layerFixture) refine(q metric.Vector, r float64, cands []core.Entry, out []wire.ResultEntry) []wire.ResultEntry {
	for _, c := range cands {
		if d := metric.L2(q, f.objs[c.Obj]); d <= r {
			out = append(out, wire.ResultEntry{Obj: int32(c.Obj), Dist: d})
		}
	}
	return out
}

// replay pushes one operation through the layers in process, each call
// its own span under parent: what the ring does for the operation, with
// no sockets and no second process.
func (f *layerFixture) replay(tr *tracer, opID, parent int, v metric.Vector, publish bool) error {
	step := func(name string) func(count int) {
		id := tr.begin(opID, parent, name)
		return func(count int) { tr.endN(id, count) }
	}
	done := step("indexspace.map")
	center := f.emb.MapInto(v, make([]float64, f.w.landmarks))
	done(1)
	done = step("lph.hash")
	key := f.part.Ring(f.part.Hash(center))
	done(1)
	if publish {
		f.objs = append(f.objs, v)
		done = step("core.put")
		err := f.store.Put(storeIndex, key, core.Entry{Obj: core.ObjectID(len(f.objs) - 1), Point: center})
		done(1)
		return err
	}
	done = step("query.new")
	reg, err := query.New(f.part, f.cube(center, f.w.radius))
	done(1)
	if err != nil {
		return err
	}
	done = step("query.restrict")
	rs := f.restrictions(reg, nil)
	for _, r := range rs {
		query.Restrict(f.part, r.reg, r.prekey, r.prelen)
	}
	done(len(rs))
	done = step("wire.query_codec")
	payload, err := wire.EncodeQuery(f.part, wire.QueryMessage{Subqueries: []query.Region{reg}})
	if err == nil {
		_, err = wire.DecodeQuery(f.part, payload)
	}
	done(1)
	if err != nil {
		return err
	}
	done = step("wire.frame")
	frame, err := wire.AppendFrame(nil, uint64(opID), payload)
	if err == nil {
		_, _, _, err = wire.ReadFrame(bytes.NewReader(frame), nil)
	}
	done(1)
	if err != nil {
		return err
	}
	done = step("core.scan")
	cands := f.store.Scan(storeIndex, reg, nil)
	done(f.store.Size(storeIndex))
	done = step("metric.refine")
	res := f.refine(v, f.w.radius, cands, nil)
	done(len(cands))
	done = step("wire.result_codec")
	if payload, err = wire.EncodeResult(res, f.space.Max); err == nil {
		_, err = wire.DecodeResult(payload, f.space.Max)
	}
	done(len(res))
	return err
}

// sink keeps the compiler from discarding a measured call's result.
var sink float64

// loopSpan times fn, which makes count layer calls, loopRounds times —
// one span per round under parent — and returns the median cost of one
// call in nanoseconds.
func loopSpan(tr *tracer, parent int, name string, count int, fn func()) float64 {
	rounds := make([]float64, loopRounds)
	for r := range rounds {
		id := tr.begin(0, parent, name)
		fn()
		tr.endN(id, count)
		rounds[r] = float64(tr.spans[id-1].dur()) / float64(max(count, 1))
	}
	return median(rounds)
}

// layerLoops measures the per-call constants of the layers below netrt
// over the workload's query vectors.
func (f *layerFixture) layerLoops(tr *tracer, e env, qs []metric.Vector, seed int64, m map[string]float64) error {
	root := tr.begin(0, 0, "layers")
	defer tr.end(root)
	calls := max(1000, int(200000*e.scale))
	w := f.w

	m["metric.l2_ns"] = loopSpan(tr, root, "metric.l2", calls, func() {
		for i := 0; i < calls; i++ {
			sink += metric.L2(qs[i%len(qs)], f.objs[i%len(f.objs)])
		}
	})
	// Strings shaped like netrt's edit corpus: 3 to 11 letters of "abcde".
	rng := rand.New(rand.NewSource(seed))
	strs := make([]string, 512)
	for i := range strs {
		b := make([]byte, 3+rng.Intn(9))
		for j := range b {
			b[j] = "abcde"[rng.Intn(5)]
		}
		strs[i] = string(b)
	}
	var scratch metric.EditScratch
	m["metric.edit_ns"] = loopSpan(tr, root, "metric.edit", calls, func() {
		for i := 0; i < calls; i++ {
			sink += scratch.Edit(strs[i%len(strs)], strs[(i+1)%len(strs)])
		}
	})

	buf := make([]float64, w.landmarks)
	m["indexspace.map_ns"] = loopSpan(tr, root, "indexspace.map", calls, func() {
		for i := 0; i < calls; i++ {
			sink += f.emb.MapInto(qs[i%len(qs)], buf)[0]
		}
	})
	centers := make([][]float64, len(qs))
	cubes := make([][]lph.Bounds, len(qs))
	regs := make([]query.Region, len(qs))
	var rs []restriction
	for i, q := range qs {
		centers[i] = f.emb.Map(q)
		cubes[i] = f.cube(centers[i], w.radius)
		var err error
		if regs[i], err = query.New(f.part, cubes[i]); err != nil {
			return err
		}
		rs = f.restrictions(regs[i], rs)
	}
	m["lph.hash_ns"] = loopSpan(tr, root, "lph.hash", calls, func() {
		for i := 0; i < calls; i++ {
			sink += float64(f.part.Hash(centers[i%len(centers)]) & 1)
		}
	})
	m["query.new_ns"] = loopSpan(tr, root, "query.new", calls, func() {
		for i := 0; i < calls; i++ {
			r, _ := query.New(f.part, cubes[i%len(cubes)]) // the same cubes built regs above without error
			sink += float64(r.PreLen)
		}
	})
	m["query.split_ns"] = loopSpan(tr, root, "query.split", calls, func() {
		for i := 0; i < calls; i++ {
			r := regs[i%len(regs)]
			sink += float64(len(query.Split(f.part, r, min(r.PreLen+1, lph.M))))
		}
	})
	m["query.restrict_ns"] = loopSpan(tr, root, "query.restrict", calls, func() {
		for i := 0; i < calls && len(rs) > 0; i++ {
			r := rs[i%len(rs)]
			if _, ok := query.Restrict(f.part, r.reg, r.prekey, r.prelen); ok {
				sink++
			}
		}
	})

	// Scan every query's region over the member's store, then refine:
	// entries examined per result returned is the scan's waste ratio.
	n := f.store.Size(storeIndex)
	var cands []core.Entry
	var results [][]wire.ResultEntry
	examined, returned := 0, 0
	for i, q := range qs {
		cands = f.store.Scan(storeIndex, regs[i], cands[:0])
		res := f.refine(q, w.radius, cands, nil)
		results = append(results, res)
		examined += n
		returned += len(res)
	}
	m["core.scan_entries_per_result"] = float64(examined) / float64(max(returned, 1))
	scans := min(len(qs), max(8, 4000000/max(n, 1)))
	m["core.scan_ns_per_entry"] = loopSpan(tr, root, "core.scan", scans*n, func() {
		for i := 0; i < scans; i++ {
			cands = f.store.Scan(storeIndex, regs[i], cands[:0])
		}
	})

	// Codecs and framing at the workload's own message sizes.
	sizes := make([]float64, len(qs)) // of the encoded result messages
	entries := 0
	for i := range qs {
		if _, err := wire.EncodeQuery(f.part, wire.QueryMessage{Subqueries: regs[i : i+1]}); err != nil {
			return err
		}
		p, err := wire.EncodeResult(results[i], f.space.Max)
		if err != nil {
			return err
		}
		sizes[i] = float64(len(p))
		entries += len(results[i])
	}
	codecRounds := max(1, calls/8/len(qs))
	m["wire.query_codec_ns"] = loopSpan(tr, root, "wire.query_codec", codecRounds*len(qs), func() {
		for k := 0; k < codecRounds; k++ {
			for i := range qs {
				p, _ := wire.EncodeQuery(f.part, wire.QueryMessage{Subqueries: regs[i : i+1]}) //lint:allow errdrop the same region encoded without error above
				q, _ := wire.DecodeQuery(f.part, p)                                            //lint:allow errdrop decodes what was just encoded
				sink += float64(len(q.Subqueries))
			}
		}
	})
	m["wire.result_codec_ns_per_entry"] = loopSpan(tr, root, "wire.result_codec", codecRounds*entries, func() {
		for k := 0; k < codecRounds; k++ {
			for i := range qs {
				p, _ := wire.EncodeResult(results[i], f.space.Max) //lint:allow errdrop the same entries encoded without error above
				r, _ := wire.DecodeResult(p, f.space.Max)          //lint:allow errdrop decodes what was just encoded
				sink += float64(len(r))
			}
		}
	})
	// Frames carry a result message of the workload's median size.
	payload := make([]byte, int(median(sizes)))
	frame, err := wire.AppendFrame(nil, 1, payload)
	if err != nil {
		return err
	}
	m["wire.frame_encode_ns"] = loopSpan(tr, root, "wire.frame_encode", calls, func() {
		for i := 0; i < calls; i++ {
			frame, _ = wire.AppendFrame(frame[:0], uint64(i), payload) //lint:allow errdrop the same payload framed without error above
		}
	})
	var rd bytes.Reader
	var fbuf []byte
	m["wire.frame_decode_ns"] = loopSpan(tr, root, "wire.frame_decode", calls, func() {
		for i := 0; i < calls; i++ {
			rd.Reset(frame)
			_, _, fbuf, _ = wire.ReadFrame(&rd, fbuf) //lint:allow errdrop reads back the frame AppendFrame just built
		}
	})

	// Inserts: the in-memory store, the durable store, and the log
	// under it, all with publish-sized records and the fixed
	// SyncInterval policy netrt's durable nodes run.
	puts := min(len(f.ents), 20000)
	m["core.put_ns"] = loopSpan(tr, root, "core.put", puts, func() {
		st := core.NewMemStore()
		for i := 0; i < puts; i++ {
			_ = st.Put(storeIndex, f.keys[i], f.ents[i]) // MemStore.Put cannot fail on a fresh in-memory store; the error is part of the Store interface
		}
	})
	dir, err := os.MkdirTemp(e.workDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //lint:allow errdrop best-effort cleanup of scratch data under the work dir
	const durablePuts = 2048
	ws, err := core.NewWALStore(core.WALStoreOptions{Dir: filepath.Join(dir, "store"), Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	var putErr error
	next := 0
	ns := loopSpan(tr, root, "core.walstore_put", durablePuts, func() {
		for i := 0; i < durablePuts && putErr == nil; i++ {
			j := next % len(f.ents)
			putErr = ws.Put(storeIndex, f.keys[j], core.Entry{Obj: core.ObjectID(next), Point: f.ents[j].Point})
			next++
		}
	})
	if err := errors.Join(putErr, ws.Close()); err != nil {
		return err
	}
	m["core.walstore_put_us"] = ns / 1000

	log, err := wal.OpenStore(filepath.Join(dir, "log"), wal.Options{Sync: wal.SyncInterval}, nil, nil)
	if err != nil {
		return err
	}
	record := append(core.AppendEntry(nil, f.keys[0], f.ents[0]), netrt.EncodeVectorQuery(f.objs[0])...)
	var logErr error
	ns = loopSpan(tr, root, "wal.append", durablePuts, func() {
		for i := 0; i < durablePuts && logErr == nil; i++ {
			logErr = log.Append(record)
		}
	})
	m["wal.append_us"] = ns / 1000
	m["wal.bytes_per_record"] = float64(log.LogBytes()) / float64(loopRounds*durablePuts)
	const syncs = 16
	ns = loopSpan(tr, root, "wal.sync", syncs, func() {
		for i := 0; i < syncs && logErr == nil; i++ {
			if logErr = log.Append(record); logErr == nil {
				logErr = log.Sync()
			}
		}
	})
	m["wal.sync_us"] = ns / 1000
	return errors.Join(logErr, log.Close())
}

// layout is a ring's shape: each member's identity and how many entries
// it stores.
type layout struct {
	ids   []uint64
	store []int
}

// localRing is a ring of in-process netrt nodes with silent tickers.
type localRing struct {
	nodes []*netrt.Node
	store []int
}

func (r *localRing) close() {
	for _, n := range r.nodes {
		n.Close()
	}
}

func bootLocalRing(e env, w workload) (*localRing, error) {
	addrs, err := ringAddrs(e.ephemeral)
	if err != nil {
		return nil, err
	}
	r := &localRing{store: make([]int, len(addrs))}
	for i, addr := range addrs {
		n, err := netrt.Start(netrt.Config{
			Listen: addr, Join: addrs[:i], Data: w.data(), Replicas: w.replicas,
			GossipPeriod: never, HeartbeatPeriod: never, AntiEntropyPeriod: never,
		})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("in-process ring slot %d: %w", i, err)
		}
		r.nodes = append(r.nodes, n)
	}
	for i, n := range r.nodes {
		c, err := netrt.Dial(n.Addr(), opTimeout)
		if err == nil {
			r.store[i], err = awaitMembers(c, len(addrs))
			_ = c.Close() // teardown of a read-only probe connection
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("in-process ring slot %d: %w", i, err)
		}
	}
	return r, nil
}

// stats sums the link counters of the ring's nodes once the ring is
// quiet: queues drained and nothing sent between two readings. An empty
// queue alone is not enough — a frame still in a socket makes its
// receiver send another — and the tickers are silent, so a quiet ring
// stays quiet.
func (r *localRing) stats() netrt.LinkStats {
	var prev netrt.LinkStats
	for first := true; ; first = false {
		var sum netrt.LinkStats
		for _, n := range r.nodes {
			s := n.Stats()
			sum.Queued += s.Queued
			sum.Sent += s.Sent
			sum.Shed += s.Shed
			sum.Redials += s.Redials
		}
		if !first && sum.Queued == 0 && sum == prev {
			return sum
		}
		prev = sum
		time.Sleep(10 * time.Millisecond)
	}
}

// exactCounts drives the first exactOps operations through a 4-member
// in-process ring from one client and reports the frames they cost.
func exactCounts(e env, w workload, ops []op, m map[string]float64, out *outcome) (layout, error) {
	r, err := bootLocalRing(e, w)
	if err != nil {
		return layout{}, err
	}
	defer r.close()
	c, err := netrt.Dial(r.nodes[0].Addr(), opTimeout)
	if err != nil {
		return layout{}, err
	}
	defer c.Close() // teardown of the client; the nodes close right after
	before := r.stats()
	p := runCount(c, ops, w, 0, exactOps, newPublished())
	after := r.stats()
	out.count(p)
	m["netrt.frames_per_query"] = float64(after.Sent-before.Sent) / exactOps
	m["netrt.shed"] = float64(after.Shed - before.Shed)
	m["netrt.redials"] = float64(after.Redials - before.Redials)
	if after.Shed != before.Shed || after.Redials != before.Redials {
		return layout{}, fmt.Errorf("in-process ring shed %d frames and redialled %d times; both must be 0", after.Shed-before.Shed, after.Redials-before.Redials)
	}
	lay := layout{store: r.store}
	for _, n := range r.nodes {
		lay.ids = append(lay.ids, n.ID())
	}
	return lay, nil
}

// localNode measures one member's work with no peers: a one-member
// durable in-process node holding share entries answers the sequence's
// queries, then takes publishes. It also returns the node's Info round
// trip, the floor under any client latency.
func localNode(e env, w workload, share int, ops []op, m map[string]float64, out *outcome) (rttUs float64, err error) {
	dir, err := os.MkdirTemp(e.workDir, "local-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir) //lint:allow errdrop best-effort cleanup of scratch data under the work dir
	w.objects = share
	n, err := netrt.Start(netrt.Config{Listen: "127.0.0.1:0", Data: w.data(), DataDir: dir,
		GossipPeriod: never, HeartbeatPeriod: never, AntiEntropyPeriod: never})
	if err != nil {
		return 0, err
	}
	defer n.Close()
	ds, err := netrt.BuildDataset(w.data())
	if err != nil {
		return 0, err
	}
	var p phase
	fail := func(what string, i int, err error) {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("local %s %d: %w", what, i, err)
		}
	}
	var queryUs, publishUs []float64
	for i := 0; i < localOps; i++ {
		o := ops[i%len(ops)]
		p.attempted++
		t := time.Now()
		res, err := n.Query(o.obj, w.radius, opTimeout)
		queryUs = append(queryUs, float64(time.Since(t))/1e3)
		if err == nil {
			if o.want, err = ds.BruteForce(o.obj, w.radius); err == nil {
				err = checkQuery(&o, w.radius, res, newPublished())
			}
		}
		if err != nil {
			fail("query", i, err)
		}
	}
	// Publishes follow the queries so the extras they leave behind do
	// not slow the scans being measured.
	for i := 0; i < localOps; i++ {
		p.attempted++
		t := time.Now()
		err := n.Publish(int32(firstPublishID+i), ops[i%len(ops)].obj, opTimeout)
		publishUs = append(publishUs, float64(time.Since(t))/1e3)
		if err != nil {
			fail("publish", i, err)
		}
	}
	out.count(p)
	m["netrt.local_query_us"] = median(queryUs)
	m["netrt.publish_local_us"] = median(publishUs)
	if w.publishShare == 0 {
		// The workload publishes nothing, and every run reports every
		// metric: its publish latency is this node's.
		for i := range publishUs {
			publishUs[i] /= 1000
		}
		out.publishLatency(publishUs)
	}
	c, err := netrt.Dial(n.Addr(), opTimeout)
	if err != nil {
		return 0, err
	}
	defer c.Close() // teardown of a read-only probe connection
	return rttFloor(c)
}

// rttFloor is the median Info round trip: frame, gob, socket and the
// executor hop, with no index work.
func rttFloor(c *netrt.Client) (float64, error) {
	const trips = 2000
	us := make([]float64, trips)
	for i := range us {
		t := time.Now()
		if _, err := c.Info(opTimeout); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t)) / 1e3
	}
	return median(us), nil
}

// publishLatency reports the client-side latency of acknowledged
// publishes, given in milliseconds.
func (o *outcome) publishLatency(publishMs []float64) {
	sort.Float64s(publishMs)
	o.metrics["publish_p50_ms"], o.samples["publish_p50_ms"] = percentile(publishMs, 50), len(publishMs)
	o.metrics["publish_p95_ms"], o.samples["publish_p95_ms"] = percentile(publishMs, 95), len(publishMs)
}

// simCounts are the paper's §4.1 cost metrics over the first exactOps
// searches: exact, seed-determined counts.
func simCounts(f *simFixture, qs []simQuery, radius float64, m map[string]float64, out *outcome) {
	var p phase
	var msgs, bytes, hops, cands, results int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < exactOps; i++ {
		q := &qs[i%len(qs)]
		p.attempted++
		st, err := f.search(q, radius)
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("counted search %d: %w", i, err)
			}
		}
		msgs += int64(st.QueryMessages + st.ResultMessages)
		bytes += st.QueryBytes + st.ResultBytes
		hops += int64(st.Hops)
		cands += int64(st.Candidates)
		results += int64(len(q.want))
	}
	runtime.ReadMemStats(&ms1)
	out.count(p)
	m["core.sim_msgs_per_query"] = float64(msgs) / exactOps
	m["core.sim_bytes_per_query"] = float64(bytes) / exactOps
	m["core.sim_hops"] = float64(hops) / exactOps
	m["core.sim_candidates_per_result"] = float64(cands) / float64(max(results, 1))
	m["core.sim_allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / exactOps
}

// tracedOps runs n operations one at a time from sequence index from,
// each under a root span with the real call and its in-process replay
// as children, and returns the time the real calls took including the
// tracing around them.
func tracedOps(tr *tracer, f *layerFixture, d *driver, from, n int) (time.Duration, error) {
	var total int64
	for i := from; i < from+n; i++ {
		opID := i + 1
		root := tr.begin(opID, 0, "op")
		id := tr.begin(opID, root, d.callName)
		d.call(i)
		tr.end(id)
		rp := tr.begin(opID, root, "replay")
		v, publish := d.vec(i)
		err := f.replay(tr, opID, rp, v, publish)
		tr.end(rp)
		tr.end(root)
		if err != nil {
			return 0, fmt.Errorf("replay of operation %d: %w", i, err)
		}
		total += tr.spans[root-1].dur() - tr.spans[rp-1].dur()
	}
	return time.Duration(total), nil
}

// traceBlock is how many operations the one-client pass runs plain
// before it runs as many traced: alternating keeps a change in the
// machine's speed from reading as tracing overhead.
const traceBlock = 32

// tracedPass drives one client for d, alternating plain and traced
// blocks of operations, and returns the tracing overhead: how much
// longer an operation takes with spans recorded around it, in percent.
func tracedPass(tr *tracer, f *layerFixture, d *driver, from int, dur time.Duration) (float64, error) {
	var plain, traced time.Duration
	for end := time.Now().Add(dur); time.Now().Before(end); from += 2 * traceBlock {
		t := time.Now()
		for i := from; i < from+traceBlock; i++ {
			d.call(i)
		}
		plain += time.Since(t)
		tt, err := tracedOps(tr, f, d, from+traceBlock, traceBlock)
		if err != nil {
			return 0, err
		}
		traced += tt
	}
	return 100 * (float64(traced) - float64(plain)) / float64(max(plain, 1)), nil
}

func maxShare(store []int) (int, float64) {
	top, sum := 0, 0
	for _, s := range store {
		top = max(top, s)
		sum += s
	}
	return top, float64(top) / float64(max(sum, 1))
}

// driver is how the traced run reaches the system a workload measures:
// the process ring through its clients, or the simulated overlay.
type driver struct {
	callName string
	// loop runs the workload closed-loop, as the end-to-end run does,
	// for d from sequence index from; call performs operation i from
	// one client, counting it into the outcome; vec returns operation
	// i's vector and whether it publishes.
	loop func(from int, d time.Duration) (phase, int)
	call func(i int)
	vec  func(i int) (metric.Vector, bool)
}

// runTraced is the traced run of one workload: it reports the per-layer
// metrics and writes the spans to path.
func runTraced(e env, w workload, seed int64, seconds float64, path string) (outcome, error) {
	out := newOutcome()
	m := out.metrics
	tr := newTracer()
	ops, err := buildOps(w, seed)
	if err != nil {
		return out, err
	}
	var qs []metric.Vector
	for _, o := range ops {
		if !o.publish {
			qs = append(qs, o.vec)
		}
	}

	// The simulated overlay serves sim-search's passes and, for every
	// workload, the paper's cost counts.
	sw, _ := workloadByName("sim-search")
	sw = sw.scaled(e.scale)
	sf, _, err := newSimFixture(sw)
	if err != nil {
		return out, err
	}
	defer sf.p.Close()
	sqs := buildSimQueries(sw, sf.objs, seed)
	simCounts(sf, sqs, sw.radius, m, &out)

	// The ring's layout: members' identities and shares. sim-search has
	// no ring of its own; its ring-shaped numbers come from an
	// in-process ring over the same corpus shape.
	var lay layout
	var pr *procRing
	var d driver
	if w.sim {
		if lay, err = exactCounts(e, w, ops, m, &out); err != nil {
			return out, err
		}
		_, m["netrt.store_max_share"] = maxShare(sf.p.Loads())
		d = driver{
			callName: "sim.search",
			loop: func(from int, dur time.Duration) (phase, int) {
				return sf.loop(sqs, w.radius, from, stopAfter(dur))
			},
			call: func(i int) {
				p := phase{attempted: 1}
				if _, err := sf.search(&sqs[i%len(sqs)], w.radius); err != nil {
					p.fail(err)
				}
				out.count(p)
			},
			vec: func(i int) (metric.Vector, bool) { return sqs[i%len(sqs)].vec, false },
		}
	} else {
		if pr, _, err = bootRing(ringOptions{bin: e.bin, workDir: e.workDir, w: w, ephemeral: e.ephemeral}); err != nil {
			return out, err
		}
		defer pr.stop()
		if err := checkLayout(e, w, pr); err != nil {
			return out, err
		}
		lay = pr.layout()
		_, m["netrt.store_max_share"] = maxShare(lay.store)
		if m["netrt.rtt_floor_us"], err = rttFloor(pr.clients[0]); err != nil {
			return out, err
		}
		clients := []*netrt.Client{pr.clients[0], pr.clients[2]}
		pub := newPublished()
		d = driver{
			callName: "netrt.roundtrip",
			loop: func(from int, dur time.Duration) (phase, int) {
				return runLoop(clients, ops, w, from, stopAfter(dur), pub)
			},
			call: func(i int) {
				var p phase
				doOp(clients[0], &ops[i%len(ops)], w, int32(firstPublishID+i), &p, pub)
				out.count(p)
			},
			vec: func(i int) (metric.Vector, bool) { o := &ops[i%len(ops)]; return o.vec, o.publish },
		}
	}
	share, _ := maxShare(lay.store)
	f, err := newLayerFixture(w, share, lay.ids)
	if err != nil {
		return out, err
	}

	// The workload itself, as the end-to-end run drives it but shorter:
	// the tail, the skew between processes, and the median the ring's
	// overhead is taken from.
	var pids []int // none on sim-search: one process does all the work
	if pr != nil {
		pids = pr.pids()
	}
	warm, next := d.loop(0, warmUp)
	out.count(warm)
	cpu0, err := cpuSnapshot(pids)
	if err != nil {
		return out, err
	}
	timed, next := d.loop(next, secs(seconds*0.3))
	out.count(timed)
	cpu1, err := cpuSnapshot(pids)
	if err != nil {
		return out, err
	}
	m["netrt.cpu_max_proc_share"] = 1
	var top, sum time.Duration
	for i := range pids {
		top = max(top, cpu1[i]-cpu0[i])
		sum += cpu1[i] - cpu0[i]
	}
	if sum > 0 {
		m["netrt.cpu_max_proc_share"] = float64(top) / float64(sum)
	}
	queryMs, publishMs := timed.latencies()
	sorted := sortedCopy(queryMs)
	m["netrt.query_p99_ms"] = percentile(sorted, 99)
	out.samples["netrt.query_p99_ms"] = len(sorted)
	if w.publishShare > 0 {
		out.publishLatency(publishMs)
	}

	if m["trace.overhead_pct"], err = tracedPass(tr, f, &d, next, secs(seconds*0.3)); err != nil {
		return out, err
	}

	if pr != nil {
		// The in-process ring needs the pinned ports back.
		pr.stop()
		if _, err = exactCounts(e, w, ops, m, &out); err != nil {
			return out, err
		}
	}
	rtt, err := localNode(e, w, share, ops, m, &out)
	if err != nil {
		return out, err
	}
	if w.sim {
		m["netrt.rtt_floor_us"] = rtt
	}
	m["netrt.ring_overhead_us"] = 1000*percentile(sorted, 50) - m["netrt.local_query_us"]
	if err := f.layerLoops(tr, e, qs, seed, m); err != nil {
		return out, err
	}
	printBudget(tr.spans)
	return out, writeTrace(path, w.name, seed, tr.spans)
}

// printBudget prints the median self time of each span name of the
// traced operations: where one operation's time goes, outside in.
func printBudget(spans []span) {
	var perOp []span
	for _, s := range spans {
		if s.Op != 0 {
			perOp = append(perOp, s)
		}
	}
	byName := selfByName(perOp)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("trace budget: %-20s median self %10.2f us  (n=%d)\n", n, median(byName[n])/1e3, len(byName[n]))
	}
}
