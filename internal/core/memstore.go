package core

import (
	"fmt"
	"slices"
	"sort"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// region holds one index scheme's entries on one node. Entries are
// kept with their ring keys so load migration can split a node's
// range; the slices are unsorted between migrations (queries scan them
// linearly — per-node entry counts are small by design).
//
// pts is the scan's copy of the entries' index points, one contiguous
// column in entry order: entry i's point is pts[i*k : (i+1)*k]. A scan
// examines every entry and keeps few, so it streams the column and
// touches an Entry only on a hit, instead of chasing each entry's Point
// into wherever the caller's corpus put it. The column belongs to the
// region — no Entry's Point aliases it — and every mutator below keeps
// it in step with entries.
type region struct {
	keys    []lph.Key // ring (rotated) key of each entry
	entries []Entry
	k       int // point length of the index, set by the first entry of an empty region
	pts     []float64
}

// add appends a batch, or refuses all of it when a point's length is not
// the region's: the column has one stride, and Region.Contains would
// never match such an entry anyway — it would sit where no query can
// return it.
func (s *region) add(index string, keys []lph.Key, entries []Entry) error {
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
		// One growth decision for the three columns, by doubling: a region
		// streamed in chunk by chunk reallocates a handful of times.
		room := max(n, 2*cap(s.entries)) - len(s.entries)
		s.keys = slices.Grow(s.keys, room)
		s.entries = slices.Grow(s.entries, room)
		s.pts = slices.Grow(s.pts, room*k)
	}
	s.keys = append(s.keys, keys...)
	s.entries = append(s.entries, entries...)
	for i := range entries {
		s.pts = append(s.pts, entries[i].Point...)
	}
	return nil
}

// move copies entry from's row of every column to row to.
func (s *region) move(to, from int) {
	s.keys[to] = s.keys[from]
	s.entries[to] = s.entries[from]
	copy(s.pts[to*s.k:(to+1)*s.k], s.pts[from*s.k:(from+1)*s.k])
}

// truncate keeps the first n entries.
func (s *region) truncate(n int) {
	s.keys = s.keys[:n]
	s.entries = s.entries[:n]
	s.pts = s.pts[:n*s.k]
}

func (s *region) size() int { return len(s.entries) }

// scanAppend appends the entries whose index points fall inside the
// cube to buf and returns it (the zero-allocation hot path). The test is
// Region.Contains' — same length, every coordinate in its closed
// interval — read from the column.
func (s *region) scanAppend(cube []lph.Bounds, buf []Entry) []Entry {
	k := s.k
	if len(cube) != k {
		return buf
	}
	pts := s.pts
next:
	for i := range s.entries {
		p := pts[i*k : (i+1)*k]
		for j, b := range cube {
			if !b.Contains(p[j]) {
				continue next
			}
		}
		buf = append(buf, s.entries[i])
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
			s.move(kept, i)
			kept++
		}
	}
	s.truncate(kept)
	return outK, outE
}

// drain removes and returns everything.
func (s *region) drain() ([]lph.Key, []Entry) {
	k, e := s.keys, s.entries
	s.keys, s.entries, s.pts = nil, nil, nil
	return k, e
}

// MemStore is the in-memory Store — the default backend, equivalent to
// the pre-Store behavior and what the paper's simulations assume. Its
// mutating methods fail only on an entry whose point length is not the
// index's, and then store nothing.
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
			st.move(i, last)
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
	return st.scanAppend(r.Cube, buf)
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
	if len(keys) == 0 {
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
