package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// region holds one index scheme's entries on one node, and the index its
// scans read.
//
// keys and entries are the store's contents, in storage order: an append
// goes to the end, Delete swap-removes, ExtractUpTo compacts. Everything
// that hands entries out — View, RegionSnapshot, ExtractUpTo, Drain, the
// transfer chunks cut from them — reads these two and nothing else, so
// that order is a function of the mutations alone.
//
// pts, objs, order, boxes and body are the scan index, derived from the
// two and never the other way round. Row i of the index is entry
// order[i], its index point copied to pts[i*k : (i+1)*k] and its object
// id to objs[i]: columns owned by the region (no Entry's Point aliases
// them), so a scan streams memory and ScanIDs touches no Entry at all.
// Rows [0, body) are in ascending ring-key order, equal keys in storage
// order, and every leafRows of them lie under one of boxes' leaf boxes
// (query.LeafBoxes): a scan tests the boxes first and the rows only
// under those that meet the cube. The keys decide how tight a box is,
// not whether it is right: a box bounds its own rows whatever order put
// them there, so the region needs no partitioner. Rows [body,
// len(order)) are the tail: entries appended since the body was sorted,
// in storage order, under no box, tested row by row.
//
// The index is brought up to date by the scan that needs it (index), not
// by the mutators: add leaves new entries for the next scan to copy into
// the tail, and whatever moves or removes an entry ends in truncate or
// drain, which drop every row, so len(order) < len(entries) is all a scan
// has to check. A store belongs to the protocol executor (Store), which
// is why a read may write.
type region struct {
	keys    []lph.Key // ring (rotated) key of each entry
	entries []Entry
	k       int // point length of the index, set by the first entry of an empty region

	pts   []float64
	objs  []int32
	order []int32
	boxes query.LeafBoxes
	body  int

	// rows is Scan's scratch: the rows of one scan, mapped to entries
	// before Scan returns.
	rows []int32

	// boxTests and rowTests count the boxes and the rows scans have
	// compared with a cube, added up once per leaf, not per row
	// (BenchmarkMemStoreScan).
	boxTests, rowTests int
}

const (
	// leafRows is the number of consecutive body rows under one box.
	// Regions hold a few hundred rows and cubes are wide: 4 and 16 both
	// scan slower, and so does a second level of boxes above these
	// (EXPERIMENTS.md).
	leafRows = 8
	// The tail is sorted into the body when it has outgrown 1/tailShare
	// of it (and one leaf): a scan tests at most that share of the region
	// without a box, and a row is sorted O(tailShare · log n) times over
	// the appends that follow it.
	tailShare = 4
)

// add appends a batch, or refuses all of it: when the batch does not
// carry one key per entry — every later key would sit beside another
// entry — and when a point's length is not the region's: the column has
// one stride, and Region.Contains would never match such an entry anyway
// — it would sit where no query can return it.
func (s *region) add(index string, keys []lph.Key, entries []Entry) error {
	if len(keys) != len(entries) {
		return fmt.Errorf("core: %d keys for %d entries of index %q", len(keys), len(entries), index)
	}
	if len(entries) == 0 {
		return nil
	}
	k := s.k
	if len(s.entries) == 0 {
		k = len(entries[0].Point)
	}
	for i := range entries {
		if len(entries[i].Point) != k {
			return fmt.Errorf("core: entry %d has a point of %d coordinates, index %q stores %d",
				entries[i].Obj, len(entries[i].Point), index, k)
		}
	}
	s.k = k
	if n := len(s.entries) + len(entries); n > cap(s.entries) {
		// One growth decision for both slices, by doubling: a region
		// streamed in chunk by chunk reallocates a handful of times.
		room := max(n, 2*cap(s.entries)) - len(s.entries)
		s.keys = slices.Grow(s.keys, room)
		s.entries = slices.Grow(s.entries, room)
	}
	s.keys = append(s.keys, keys...)
	s.entries = append(s.entries, entries...)
	return nil
}

// truncate keeps the first n entries. Every removal ends here — Delete
// after its swap, extractUpTo after compacting, ApplyRegion before it
// refills — so this is where the scan index loses its rows.
func (s *region) truncate(n int) {
	s.keys = s.keys[:n]
	s.entries = s.entries[:n]
	s.pts, s.objs, s.order, s.body = s.pts[:0], s.objs[:0], s.order[:0], 0
}

func (s *region) size() int { return len(s.entries) }

// index gives every entry a row: the entries without one join the tail,
// and a tail grown past its share of the body is sorted into it — one
// sort of the row → entry map, the columns refilled in that order from
// the entries' own points and ids, the boxes recomputed, all in the
// buffers the region already has.
func (s *region) index() {
	n, k := len(s.entries), s.k
	rows := len(s.order) // these keep their place in the column unless the tail is sorted in
	s.order = slices.Grow(s.order, n-rows)
	for i := rows; i < n; i++ {
		s.order = append(s.order, int32(i))
	}
	tail := n - s.body
	fold := tail > leafRows && tail*tailShare > s.body
	if fold {
		keys := s.keys
		slices.SortFunc(s.order, func(a, b int32) int {
			// Ties in storage order, which makes the order total: the
			// sort need not be stable.
			return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
		})
		s.body, rows = n, 0
	}
	s.pts = slices.Grow(s.pts[:rows*k], (n-rows)*k)
	s.objs = slices.Grow(s.objs[:rows], n-rows)
	for _, e := range s.order[rows:] {
		s.pts = append(s.pts, s.entries[e].Point...)
		s.objs = append(s.objs, int32(s.entries[e].Obj))
	}
	if fold {
		s.boxes.Fill(s.pts, 0, s.boxes.Reset(n, k, leafRows))
	}
}

// scanRows appends the rows whose index points fall inside the cube to
// buf and returns it (the zero-allocation hot path once the index is
// built); Scan and ScanIDs map them to entries and to ids. The test is
// Region.Contains' — same length, every coordinate in its closed
// interval — read from the column by query.Box.Mask, and made only in
// the runs of the body under leaf boxes that meet the cube
// (query.LeafBoxes.Walk), then in the tail, so rows come out in
// ascending order.
func (s *region) scanRows(cube []lph.Bounds, buf []int32) []int32 {
	if len(cube) != s.k {
		return buf
	}
	if len(s.order) < len(s.entries) {
		s.index()
	}
	var in query.Box
	in.Set(cube)
	rows := len(s.order) - s.body
	s.boxes.Walk(cube, 0, s.body, func(lo, hi int) {
		rows += hi - lo
		buf = s.appendMatches(&in, lo, hi, buf)
	})
	s.boxTests += (s.body + leafRows - 1) / leafRows
	s.rowTests += rows
	return s.appendMatches(&in, s.body, len(s.order), buf)
}

// appendMatches row-tests rows [lo, hi) of the column against the cube
// laid out in in, 64 rows a call, and appends the rows that pass.
func (s *region) appendMatches(in *query.Box, lo, hi int, buf []int32) []int32 {
	for ; lo < hi; lo += 64 {
		n := min(hi-lo, 64)
		for m := in.Mask(s.pts[lo*s.k:(lo+n)*s.k], n); m != 0; m &= m - 1 {
			buf = append(buf, int32(lo+bits.TrailingZeros64(m)))
		}
	}
	return buf
}

// extractUpTo removes and returns all entries whose ring key lies in
// (base-1, split], i.e. the lower half of the owner's range after a
// split at `split`. base is pred+1 (the start of the owner's range).
func (s *region) extractUpTo(base, split lph.Key) ([]lph.Key, []Entry) {
	span := split - base // inclusive span length - 1
	var outK []lph.Key
	var outE []Entry
	kept := 0
	for i, k := range s.keys {
		if k-base <= span {
			outK = append(outK, k)
			outE = append(outE, s.entries[i])
		} else {
			s.keys[kept], s.entries[kept] = k, s.entries[i]
			kept++
		}
	}
	if kept < len(s.keys) {
		s.truncate(kept)
	}
	return outK, outE
}

// drain removes and returns everything.
func (s *region) drain() ([]lph.Key, []Entry) {
	k, e := s.keys, s.entries
	*s = region{}
	return k, e
}

// MemStore is the in-memory Store — the default backend, equivalent to
// the pre-Store behavior and what the paper's simulations assume. Its
// mutating methods fail only on an entry whose point length is not the
// index's or a batch with another number of keys than entries, and then
// store nothing.
type MemStore struct {
	regions map[string]*region
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{regions: make(map[string]*region)}
}

// region returns (creating on demand) the region for an index scheme.
func (m *MemStore) region(index string) *region {
	st, ok := m.regions[index]
	if !ok {
		st = &region{}
		m.regions[index] = st
	}
	return st
}

// Put implements Store.
func (m *MemStore) Put(index string, key lph.Key, e Entry) error {
	return m.PutBatch(index, []lph.Key{key}, []Entry{e})
}

// PutBatch implements Store.
func (m *MemStore) PutBatch(index string, keys []lph.Key, entries []Entry) error {
	_, existed := m.regions[index]
	err := m.region(index).add(index, keys, entries)
	if err != nil && !existed {
		delete(m.regions, index) // a refused batch does not leave the index it named behind, empty
	}
	return err
}

// Delete implements Store.
func (m *MemStore) Delete(index string, key lph.Key, obj ObjectID) (bool, error) {
	st, ok := m.regions[index]
	if !ok {
		return false, nil
	}
	for i, k := range st.keys {
		if k == key && st.entries[i].Obj == obj {
			last := len(st.keys) - 1
			st.keys[i], st.entries[i] = st.keys[last], st.entries[last]
			st.truncate(last)
			return true, nil
		}
	}
	return false, nil
}

// Scan implements Store.
func (m *MemStore) Scan(index string, r query.Region, buf []Entry) []Entry {
	st, ok := m.regions[index]
	if !ok {
		return buf
	}
	st.rows = st.scanRows(r.Cube, st.rows[:0])
	for _, row := range st.rows {
		buf = append(buf, st.entries[st.order[row]])
	}
	return buf
}

// ScanIDs implements Store.
func (m *MemStore) ScanIDs(index string, r query.Region, buf []int32) []int32 {
	st, ok := m.regions[index]
	if !ok {
		return buf
	}
	n := len(buf)
	buf = st.scanRows(r.Cube, buf)
	for i, row := range buf[n:] {
		buf[n+i] = st.objs[row]
	}
	return buf
}

// Size implements Store.
func (m *MemStore) Size(index string) int {
	if st, ok := m.regions[index]; ok {
		return st.size()
	}
	return 0
}

// TotalSize implements Store.
func (m *MemStore) TotalSize() int {
	total := 0
	for _, st := range m.regions {
		total += st.size()
	}
	return total
}

// Indexes implements Store: scheme names in sorted order, the
// deterministic way to iterate the region map — transfer and migration
// batches must leave in the same order on every run of a seed.
func (m *MemStore) Indexes() []string {
	names := make([]string, 0, len(m.regions))
	for name := range m.regions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// View implements Store.
func (m *MemStore) View(index string, fn func(keys []lph.Key, entries []Entry)) {
	if st, ok := m.regions[index]; ok {
		fn(st.keys, st.entries)
	}
}

// RegionSnapshot implements Store.
func (m *MemStore) RegionSnapshot(index string) ([]lph.Key, []Entry) {
	st, ok := m.regions[index]
	if !ok || st.size() == 0 {
		return nil, nil
	}
	return append([]lph.Key(nil), st.keys...), append([]Entry(nil), st.entries...)
}

// ApplyRegion implements Store.
func (m *MemStore) ApplyRegion(index string, keys []lph.Key, entries []Entry) error {
	if len(keys) == 0 && len(entries) == 0 {
		delete(m.regions, index)
		return nil
	}
	_, existed := m.regions[index]
	st := m.region(index)
	was := *st
	st.truncate(0)
	if err := st.add(index, keys, entries); err != nil {
		*st = was // a refused replacement leaves the index as it was
		if !existed {
			delete(m.regions, index)
		}
		return err
	}
	return nil
}

// ExtractUpTo implements Store.
func (m *MemStore) ExtractUpTo(index string, base, split lph.Key) ([]lph.Key, []Entry, error) {
	st, ok := m.regions[index]
	if !ok {
		return nil, nil, nil
	}
	k, e := st.extractUpTo(base, split)
	return k, e, nil
}

// Drain implements Store.
func (m *MemStore) Drain(index string) ([]lph.Key, []Entry, error) {
	st, ok := m.regions[index]
	if !ok {
		return nil, nil, nil
	}
	k, e := st.drain()
	return k, e, nil
}

// DropIndex implements Store.
func (m *MemStore) DropIndex(index string) error {
	delete(m.regions, index)
	return nil
}

// Close implements Store (no resources to release).
func (m *MemStore) Close() error { return nil }
