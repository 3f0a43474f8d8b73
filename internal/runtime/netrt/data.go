package netrt

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

// DataConfig pins the deterministic corpus every ring member holds.
// All processes must agree on every field — the handshake compares a
// signature over the derived keys and refuses to link nodes whose
// corpora differ. Every process derives the corpus from these fields at
// startup; Config.DataDir only adds the online mutations a restarted
// (e.g. SIGKILLed) node cannot re-derive — see durable.go.
type DataConfig struct {
	// Metric selects the object space: "euclid" (Dim-dimensional
	// vectors, uniform in [0,1]) or "edit" (short random strings under
	// Levenshtein distance).
	Metric string
	// Seed drives object generation and landmark selection.
	Seed int64
	// Objects is the corpus size (default 2048).
	Objects int
	// Dim is the vector dimensionality for "euclid" (default 4).
	Dim int
	// Landmarks is the index-space dimensionality k (default 6).
	Landmarks int
}

func (c *DataConfig) fillDefaults() {
	if c.Metric == "" {
		c.Metric = "euclid"
	}
	if c.Objects <= 0 {
		c.Objects = 2048
	}
	if c.Dim <= 0 {
		c.Dim = 4
	}
	if c.Landmarks <= 0 {
		c.Landmarks = 6
	}
}

// corpus is what a node needs from the dataset, independent of the
// object type: ring placement of every entry, index-space points for
// region scans, exact distances for refinement, and query-region
// construction. Everything an answer walks is addressed by sorted
// position j (Cols, evaluator); a corpus id i — what the wire,
// tombstones and delete routing carry — reaches its entry through
// Cols().pos, as Key and Point do.
type corpus interface {
	N() int
	// Key returns the ring key (rotation applied) of the entry with
	// corpus id i.
	Key(i int) lph.Key
	// Point writes the index-space point of the entry with corpus id i
	// into dst, which has K coordinates, and returns it: the float64
	// point its key was hashed from, mapped again through the embedding,
	// since the columns hold only its float32 rounding.
	Point(i int, dst []float64) []float64
	// Cols returns the corpus in key order, for region answers and
	// ownership runs.
	Cols() *columns
	Part() *lph.Partitioner
	Sig() uint64
	// QueryRegion builds the eps-widened query region for an encoded
	// query object and radius.
	QueryRegion(qobj []byte, r float64) (query.Region, error)
	// Query decodes a query object once, for every exact distance an
	// answer computes from it.
	Query(qobj []byte) (evaluator, error)
	// RandomQuery draws a random encoded query object from rng.
	RandomQuery(rng *rand.Rand) []byte
	// MapObj maps an encoded object into the index: its ring key (the
	// routing position an online publish or delete goes to), its
	// index-space point, and the object decoded (as Decode).
	MapObj(obj []byte) (lph.Key, []float64, any, error)
	// Decode decodes an encoded object into the form evaluator.Dist
	// reads, as MapObj does without mapping it: a journaled publish
	// carries its key and point.
	Decode(obj []byte) (any, error)
}

// evaluator is a decoded query object and the exact distances from it.
type evaluator interface {
	// Refine writes to dist[i] the distance from the query to the boot
	// object at sorted position pos[i], for each of up to 64 positions,
	// and returns a mask whose bit i is set when dist[i] <= r: the
	// distances a leaf's survivors need, in one call.
	Refine(pos []int32, r float64, dist []float64) uint64
	// At returns the distance to the boot object at sorted position j,
	// one object through the metric space's Dist: what BruteForce
	// reads, and so the reference Refine answers are held to.
	At(j int) float64
	// RefineExtras is Refine over published entries: the objects at
	// rows pos of a delta's columns, decoded once when the delta took
	// them.
	RefineExtras(x *extraCols, pos []int32, r float64, dist []float64) uint64
	// Dist returns the distance to a decoded object, one object through
	// the metric space's Dist: what Dataset.Distance reads.
	Dist(o any) float64
}

// columns is the boot corpus' index entries, stored once, flat, in
// unrotated-key order (ties by corpus index). lph.Hash is a k-d
// bisection, so a key is its entry's root-to-leaf path and the sorted
// column is the k-d tree laid flat: the entries under a region's prefix
// are one contiguous run, and the ring arc a member owns is at most two
// (arc). The column never changes after seal, so its leaf boxes, one
// per leafRows sorted positions, are computed there once (boxes), and a
// region reads those over its prefix's run. A point is stored once, as
// the float32 nearest each coordinate: a row at k = 6 is 24 bytes, and
// a region's cube test streams half what float64 rows would make it
// (query.Box32 says how a float32 row is tested against a float64
// cube). No float64 copy is kept; Point maps the object again. The
// dataset's objects sit in the same order (dataset.at), so a sorted
// position names an entry's key, id, point and object alike; pos alone
// is indexed by corpus id. A node's columns, when large, are carved from
// a mapping outside the Go heap (mem, colMem); the leaf boxes stay on
// the heap.
// Until seal sorts them the columns are in corpus order and
// ids/pos/boxes are unset.
type columns struct {
	k     int
	mem   *colMem   // what keys, ids, pos and pts are carved from; nil: the heap
	keys  []lph.Key // ascending
	ids   []int32   // corpus index of the entry at each sorted position
	pts   []float32 // k coordinates per entry, each rounded to nearest, in sorted order
	pos   []int32   // inverse of ids: corpus index → sorted position
	boxes query.LeafBoxes
}

// run is a half-open range [a, b) of sorted positions.
type run struct{ a, b int }

// rows returns the coordinates of the points at sorted positions
// [j, j+n), row after row, as query.Box32.Mask reads them.
func (c *columns) rows(j, n int) []float32 { return c.pts[j*c.k : (j+n)*c.k : (j+n)*c.k] }

// above returns the first sorted position whose key exceeds key.
func (c *columns) above(key lph.Key) int {
	if key == ^lph.Key(0) {
		return len(c.keys)
	}
	j, _ := slices.BinarySearch(c.keys, key+1)
	return j
}

// arc returns the runs holding the keys of the ring arc (pred, me] —
// what successor-of-key ownership gives member me behind predecessor
// pred; pred == me is a one-member ring, which owns everything. A
// prefix is always one run because the columns are sorted by unrotated
// key; only an arc can wrap, at the ring's zero or at the rotation
// offset, and then it is two.
func (c *columns) arc(part *lph.Partitioner, pred, me uint64) [2]run {
	if pred == me {
		return [2]run{{0, len(c.keys)}}
	}
	from, to := part.Unring(lph.Key(pred)), part.Unring(lph.Key(me))
	if from < to {
		return [2]run{{c.above(from), c.above(to)}}
	}
	return [2]run{{0, c.above(to)}, {c.above(from), len(c.keys)}}
}

// sortByKey turns corpus order into key order and boxes the sorted
// points. The keys are radix-sorted with their corpus ids (radixSort): the
// ids start in order and every pass is stable, so equal keys keep id
// order and the result is the (key, id) order. The points are then
// permuted in place, so the build never holds a second copy of the
// coordinates (on the prototype of this layout a key-ordered copy beside
// the corpus-ordered one read +31 % rss_mb on bench's ring-scan, and
// dropping the old one afterwards still +19 %: VmHWM is a peak; in place
// it reads −6 %). The sort's scratch is a second key column, on the heap
// and garbage once it returns, and a second id column; the sorted keys
// are copied back to the column they came in, and the id column the
// sort leaves free becomes pos. objects reorders whatever
// else follows the entries, the dataset's objects, the way permuteRows
// reorders the points. It runs beside the points' permutation and the
// boxes: each reads one row per cache miss, so on two cores the two
// overlap.
func (c *columns) sortByKey(objects func(ids []int32)) {
	n := len(c.keys)
	ids := column[int32](c.mem, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	keys, sorted, pos := radixSort(c.keys, make([]lph.Key, n), ids, column[int32](c.mem, n))
	copy(c.keys, keys)
	for j, id := range sorted {
		pos[id] = int32(j)
	}
	c.ids, c.pos = sorted, pos
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		objects(c.ids)
	}()
	permuteRows(c.pts, c.k, c.ids)
	// Leaves are independent: each core boxes a stretch of them.
	eachChunk(c.boxes.Reset(n, c.k, leafRows), func(lo, hi int) { c.boxes.Fill32(c.pts, lo, hi) })
	wg.Wait()
}

// radixSort sorts keys ascending a byte a pass, lowest byte first,
// moving ids with them; every pass is stable, so keys that tie keep the
// order of their ids. keys2 and ids2 are scratch of the same length:
// the passes alternate between the two pairs of columns, a pass whose
// byte is the same in every key is skipped, and the sorted pair is
// whichever ends up holding the data. It returns that pair and the
// other id column, free for the caller's use.
func radixSort(keys, keys2 []lph.Key, ids, ids2 []int32) ([]lph.Key, []int32, []int32) {
	if len(keys) == 0 {
		return keys, ids, ids2
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for b := range counts {
		shift := uint(8 * b)
		at := &counts[b]
		if at[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for i, k := range keys {
			d := byte(k >> shift)
			keys2[at[d]], ids2[at[d]] = k, ids[i]
			at[d]++
		}
		keys, keys2, ids, ids2 = keys2, keys, ids2, ids
	}
	return keys, ids, ids2
}

// permuteRows reorders rows, len(ids) rows of width elements each, in
// place: row j takes the row that sat at ids[j]. Walking a cycle from s,
// every source row is still untouched when it is read; only s's own row
// has to be kept aside.
func permuteRows[E any](rows []E, width int, ids []int32) {
	row := func(j int) []E { return rows[j*width : (j+1)*width] }
	placed := make([]bool, len(ids))
	kept := make([]E, width)
	for s := range placed {
		if placed[s] {
			continue
		}
		copy(kept, row(s))
		for j := s; ; {
			placed[j] = true
			src := int(ids[j])
			if src == s {
				copy(row(j), kept)
				break
			}
			copy(row(j), row(src))
			j = src
		}
	}
}

// dataset is the generic corpus implementation over one metric space.
// Nothing of it is kept in corpus order: the index entries live in cols
// and the objects beside them, both in key order, so refinement reads
// memory in the order the leaf walk produces candidates. A corpus id (what
// the wire and BruteForce speak) is cols.ids[j] going out and
// cols.pos[i] coming in.
type dataset[T any] struct {
	n int
	// at returns the object at sorted position j — at corpus index j
	// until seal has run. The objects are one allocation (buildEuclid,
	// buildEdit) and at views it; no per-object header is kept.
	at func(j int) T
	// refine is evaluator.Refine for query object q: space.Dist from q
	// to the objects at sorted positions pos, in one call that reads
	// the storage behind at directly.
	refine func(q T, pos []int32, r float64, dist []float64) uint64
	// refineExtras is evaluator.RefineExtras, over the decoded objects
	// of a delta's columns.
	refineExtras func(q T, x *extraCols, pos []int32, r float64, dist []float64) uint64
	space        metric.Space[T]
	emb          *indexspace.Embedding[T]
	part         *lph.Partitioner
	cols         columns
	sig          uint64
	dec          func([]byte) (T, error)
	enc          func(dst []byte, o T) []byte // appends o's encoding
	random       func(rng *rand.Rand) []byte
}

func (d *dataset[T]) N() int                 { return d.n }
func (d *dataset[T]) Key(i int) lph.Key      { return d.part.Ring(d.cols.keys[d.cols.pos[i]]) }
func (d *dataset[T]) Cols() *columns         { return &d.cols }
func (d *dataset[T]) Part() *lph.Partitioner { return d.part }
func (d *dataset[T]) Sig() uint64            { return d.sig }

func (d *dataset[T]) Point(i int, dst []float64) []float64 {
	return d.emb.MapInto(d.at(int(d.cols.pos[i])), dst)
}

// QueryRegion is the region core's queries start from too: query.Around
// the mapped query point.
func (d *dataset[T]) QueryRegion(qobj []byte, r float64) (query.Region, error) {
	q, err := d.dec(qobj)
	if err != nil {
		return query.Region{}, err
	}
	return query.Around(d.part, d.emb.Map(q), r)
}

func (d *dataset[T]) Query(qobj []byte) (evaluator, error) {
	q, err := d.dec(qobj)
	if err != nil {
		return nil, err
	}
	return &decodedQuery[T]{d, q}, nil
}

// decodedQuery is a dataset's evaluator: the query object, decoded.
type decodedQuery[T any] struct {
	d *dataset[T]
	q T
}

func (e *decodedQuery[T]) Refine(pos []int32, r float64, dist []float64) uint64 {
	return e.d.refine(e.q, pos, r, dist)
}

func (e *decodedQuery[T]) RefineExtras(x *extraCols, pos []int32, r float64, dist []float64) uint64 {
	return e.d.refineExtras(e.q, x, pos, r, dist)
}

func (e *decodedQuery[T]) At(j int) float64   { return e.d.space.Dist(e.q, e.d.at(j)) }
func (e *decodedQuery[T]) Dist(o any) float64 { return e.d.space.Dist(e.q, o.(T)) }

func (d *dataset[T]) RandomQuery(rng *rand.Rand) []byte { return d.random(rng) }

func (d *dataset[T]) MapObj(obj []byte) (lph.Key, []float64, any, error) {
	o, err := d.dec(obj)
	if err != nil {
		return 0, nil, nil, err
	}
	p := d.emb.Map(o)
	return d.part.MapPoint(p), p, o, nil
}

func (d *dataset[T]) Decode(obj []byte) (any, error) {
	o, err := d.dec(obj)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// buildCorpus derives the full corpus from the config: objects,
// landmarks (greedy max-min over a sample), the index-space embedding
// and partitioner, and every entry's ring key. Its columns are on the
// heap, where the collector frees them with the last reference; a node
// builds through bootCorpus instead.
func buildCorpus(cfg DataConfig) (corpus, error) { return buildIn(cfg, nil) }

// bootCorpus is buildCorpus for a node: when the boot columns reach
// mapFloor they are carved from a mapping of their own (colMem), sealed
// read-only once built. The caller owns the mapping, nil for a corpus on
// the heap, and releases it once nothing reads the corpus.
func bootCorpus(cfg DataConfig) (corpus, *colMem, error) {
	cfg.fillDefaults()
	mem, err := newColMem(columnBytes(cfg))
	if err != nil {
		return nil, nil, err
	}
	c, err := buildIn(cfg, mem)
	if err == nil {
		err = mem.seal()
	}
	if err != nil {
		_ = mem.release() // the build or the seal failed, and that is the error to report
		return nil, nil, err
	}
	return c, mem, nil
}

// buildIn builds the corpus with its columns carved from mem (nil: the
// heap).
func buildIn(cfg DataConfig, mem *colMem) (corpus, error) {
	cfg.fillDefaults()
	switch cfg.Metric {
	case "euclid":
		return buildEuclid(cfg, mem)
	case "edit":
		return buildEdit(cfg, mem)
	default:
		return nil, fmt.Errorf("netrt: unknown metric %q (want euclid or edit)", cfg.Metric)
	}
}

// landmarkSample is how many objects, the first in corpus order, the
// landmarks are picked from.
const landmarkSample = 2000

// finishDataset runs the metric-independent tail of corpus
// construction on a dataset that has its objects (n, at — in corpus
// order), space and codecs: landmark selection, embedding, mapping,
// keys, signature, and the move into key order. permute reorders the
// storage behind d.at the way permuteRows reorders rows.
func finishDataset[T any](cfg DataConfig, mem *colMem, d *dataset[T], permute func(ids []int32)) (*dataset[T], error) {
	sample := make([]T, min(d.n, landmarkSample))
	for i := range sample {
		sample[i] = d.at(i)
	}
	lrng := rand.New(rand.NewSource(cfg.Seed ^ 0x6c616e646d61726b)) // "landmark"
	lms, err := landmark.Greedy(lrng, sample, cfg.Landmarks, d.space.Dist)
	if err != nil {
		return nil, err
	}
	// The picks are views of the storage seal is about to permute, and
	// an embedding built on them would measure against whatever rows end
	// up there. They leave it the way an object leaves the process:
	// encoded, and decoded into memory of their own.
	for i, lm := range lms {
		if lms[i], err = d.dec(d.enc(nil, lm)); err != nil {
			return nil, err
		}
	}
	if d.emb, err = indexspace.New(d.space, lms); err != nil {
		return nil, err
	}
	if d.part, err = d.emb.Partitioner(false); err != nil {
		return nil, err
	}
	k := d.emb.K()
	d.cols = columns{k: k, mem: mem, keys: column[lph.Key](mem, d.n), pts: column[float32](mem, d.n*k)}
	// Map every object into index space, derive its key from the float64
	// point and store the point's float32 rounding, on every core: each
	// index writes only its own slots of the columns and the metric
	// spaces are stateless, so the result is byte-identical to a serial
	// build.
	eachChunk(d.n, func(lo, hi int) {
		p := make([]float64, k)
		for i := lo; i < hi; i++ {
			d.cols.keys[i] = d.part.Hash(d.emb.MapInto(d.at(i), p))
			for j, x := range p {
				d.cols.pts[i*k+j] = float32(x)
			}
		}
	})
	d.seal(cfg, permute)
	return d, nil
}

// eachChunk splits [0, n) into one contiguous chunk per core, runs fn
// on all of them concurrently and waits.
func eachChunk(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// protoVersion names the protocol. It opens both handshakes, where no
// version may move it (proto.go), so a node or a client that speaks
// another parts there with both versions named; it is also hashed into
// the corpus signature. Every frame accepts exactly one length, so a
// layout change without a bump drops links frame by frame instead. Bump
// it whenever a frame changes layout or meaning. 2: a queryMsg carries a
// region set. 3: every frame a query or a mutation crosses is binary
// (proto.go). 4: no frame is gob; a member travels as its address. 5: a
// replica stream, its header and the anti-entropy digest carry the
// owner's delta (delta.go), not its region. 6: a kindQuery's regions
// arrive cut at their owner's position, and the owner answers its local
// share without cutting them again (query.go process). 7: a replica
// stream is its chunks alone, each naming the stream, and the stream's
// chunk, ack and digest frames are proto.go codecs (no header frame).
const protoVersion = 7

// corpusSig is the handshake signature: the protocol version, the
// corpus parameters and every entry's ring key in corpus order.
func corpusSig(version int, cfg DataConfig, part *lph.Partitioner, keys []lph.Key) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d/%s/%d/%d/%d/%d", version, cfg.Metric, cfg.Seed, cfg.Objects, cfg.Dim, cfg.Landmarks)
	var kb [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(kb[:], uint64(part.Ring(k)))
		h.Write(kb[:])
	}
	return h.Sum64()
}

// corpusRand is the generator a corpus' objects are drawn from, in
// corpus order.
func corpusRand(cfg DataConfig) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ 0x636f72707573)) // "corpus"
}

// seal finishes a dataset whose columns and objects are in corpus
// order: the signature is taken over that order, then the columns are
// sorted by key and the objects follow them, row for row.
func (d *dataset[T]) seal(cfg DataConfig, permute func(ids []int32)) {
	d.sig = corpusSig(protoVersion, cfg, d.part, d.cols.keys)
	d.cols.sortByKey(permute)
}

// buildEuclid draws the vectors into one slab of Objects·Dim floats,
// object by object — the draw order of one allocation per vector, so
// the corpus is the same — and an object is a view of its row, its
// capacity cut at the row's end so that nothing appended to one can
// reach the next. A batch of exact distances is metric.L2Rows over the
// slab, bit for bit the metric's L2. The slab is a column of mem.
func buildEuclid(cfg DataConfig, mem *colMem) (corpus, error) {
	dim := cfg.Dim
	rng := corpusRand(cfg)
	slab := column[float64](mem, cfg.Objects*dim)
	for i := range slab {
		slab[i] = rng.Float64()
	}
	return finishDataset(cfg, mem, &dataset[metric.Vector]{
		n:  cfg.Objects,
		at: func(j int) metric.Vector { return slab[j*dim : (j+1)*dim : (j+1)*dim] },
		refine: func(q metric.Vector, pos []int32, r float64, dist []float64) uint64 {
			return metric.L2Rows(dist, q, slab, pos, r)
		},
		refineExtras: func(q metric.Vector, x *extraCols, pos []int32, r float64, dist []float64) uint64 {
			return metric.L2Rows(dist, q, x.vecs, pos, r)
		},
		space: metric.EuclideanSpace("euclid", dim, 0, 1),
		dec: func(b []byte) (metric.Vector, error) {
			return decodeVectorQuery(b, dim)
		},
		enc: appendVector,
		random: func(rng *rand.Rand) []byte {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			return EncodeVectorQuery(v)
		},
	}, func(ids []int32) { permuteRows(slab, dim, ids) })
}

// editAlphabet is small on purpose: short strings over few letters
// produce a rich, collision-heavy edit-distance landscape.
const editAlphabet = "abcde"

// editMaxLen bounds string length for the "edit" metric.
const editMaxLen = 12

// buildEdit keeps its strings on the heap: they hold pointers; only the
// index columns are carved from mem.
func buildEdit(cfg DataConfig, mem *colMem) (corpus, error) {
	random := func(rng *rand.Rand) []byte {
		n := 3 + rng.Intn(editMaxLen-3)
		b := make([]byte, n)
		for j := range b {
			b[j] = editAlphabet[rng.Intn(len(editAlphabet))]
		}
		return b
	}
	rng := corpusRand(cfg)
	strs := make([]string, cfg.Objects)
	for i := range strs {
		strs[i] = string(random(rng))
	}
	return finishDataset(cfg, mem, &dataset[string]{
		n:  cfg.Objects,
		at: func(j int) string { return strs[j] },
		refine: func(q string, pos []int32, r float64, dist []float64) uint64 {
			return editRows(dist, q, strs, pos, r)
		},
		refineExtras: func(q string, x *extraCols, pos []int32, r float64, dist []float64) uint64 {
			return editRows(dist, q, x.strs, pos, r)
		},
		space: metric.EditSpace("edit", editMaxLen),
		dec: func(b []byte) (string, error) {
			if len(b) > editMaxLen {
				return "", fmt.Errorf("netrt: query string longer than %d", editMaxLen)
			}
			return string(b), nil
		},
		enc:    func(dst []byte, s string) []byte { return append(dst, s...) },
		random: random,
	}, func(ids []int32) { permuteRows(strs, 1, ids) })
}

// editRows is metric.L2Rows for strings: the edit distance from q to
// strs[pos[i]] in dist[i], and bit i set when it is at most r.
func editRows(dist []float64, q string, strs []string, pos []int32, r float64) uint64 {
	var hits uint64
	for i, j := range pos {
		if dist[i] = metric.Edit(q, strs[j]); dist[i] <= r {
			hits |= 1 << i
		}
	}
	return hits
}

// EncodeVectorQuery encodes a vector query object for the "euclid"
// metric: 8 big-endian bytes per component.
func EncodeVectorQuery(v []float64) []byte {
	return appendVector(make([]byte, 0, 8*len(v)), v)
}

func appendVector(dst []byte, v metric.Vector) []byte {
	for _, x := range v {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeVectorQuery inverts EncodeVectorQuery, checking dimensionality.
func decodeVectorQuery(b []byte, dim int) (metric.Vector, error) {
	if len(b) != 8*dim {
		return nil, fmt.Errorf("netrt: query object is %d bytes, want %d (dim %d)", len(b), 8*dim, dim)
	}
	v := make(metric.Vector, dim)
	for i := range v {
		x := math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("netrt: non-finite query component %d", i)
		}
		v[i] = x
	}
	return v, nil
}

// EncodeStringQuery encodes a string query object for the "edit"
// metric.
func EncodeStringQuery(s string) []byte { return []byte(s) }

// Dataset is the exported view of the deterministic corpus, for
// drivers (cmd/lmchaos, tests) that verify query answers by brute
// force against the same data every ring member holds.
type Dataset struct {
	c corpus
}

// BuildDataset derives the corpus a ring built from cfg holds.
func BuildDataset(cfg DataConfig) (*Dataset, error) {
	c, err := buildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{c: c}, nil
}

// N returns the corpus size.
func (d *Dataset) N() int { return d.c.N() }

// RandomQuery draws a random encoded query object from rng.
func (d *Dataset) RandomQuery(rng *rand.Rand) []byte { return d.c.RandomQuery(rng) }

// Distance returns the exact distance between a query object and an
// encoded object — what a node computes for a published entry.
func (d *Dataset) Distance(qobj, obj []byte) (float64, error) {
	ev, err := d.c.Query(qobj)
	if err != nil {
		return 0, err
	}
	o, err := d.c.Decode(obj)
	if err != nil {
		return 0, err
	}
	return ev.Dist(o), nil
}

// BruteForce returns the exact range-query answer over the full
// corpus, sorted by object id. It computes one distance at a time
// through the metric space (evaluator.At), never the batch a node
// answers with, so a ring's answers checked against it check the batch
// against the metric.
func (d *Dataset) BruteForce(qobj []byte, r float64) ([]ResultEntry, error) {
	ev, err := d.c.Query(qobj)
	if err != nil {
		return nil, err
	}
	var out []ResultEntry
	for j, id := range d.c.Cols().ids {
		if dist := ev.At(j); dist <= r {
			out = append(out, ResultEntry{Obj: id, Dist: dist})
		}
	}
	slices.SortFunc(out, func(a, b ResultEntry) int { return cmp.Compare(a.Obj, b.Obj) })
	return out, nil
}
