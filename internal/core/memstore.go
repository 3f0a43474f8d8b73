package core

import (
	"fmt"
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
// that hands entries out — View, ExtractUpTo, the transfer chunks cut
// from them — reads these two and nothing else, so that order is a
// function of the mutations alone.
//
// rows is the scan index (query.Rows), derived from the two and never
// the other way round: a row per entry, its ring key, its object id,
// its storage position as the ref and its index point copied into a
// column the index owns (no Entry's Point aliases it), so a scan streams
// memory and ScanIDs touches no Entry at all.
//
// The index is brought up to date by the scan that needs it (scan), not
// by the mutators: add leaves new entries for the next scan to add, and
// whatever moves or removes an entry ends in truncate, which drops every
// row, so rows.Len() < len(entries) is all a scan has to check. A store
// belongs to the protocol executor (Store), which is why a read may
// write.
type region struct {
	keys    []lph.Key // ring (rotated) key of each entry
	entries []Entry
	k       int // point length of the index, set by the first entry of an empty region

	rows query.Rows
	// hits is Scan's scratch: the rows of one scan, mapped to entries
	// before Scan returns.
	hits []int32
	// rowTests counts the rows scans have compared with a cube
	// (BenchmarkMemStoreScan).
	rowTests int
}

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
	s.rows.Reset()
}

func (s *region) size() int { return len(s.entries) }

// scan appends to buf the rows of the index whose points the cube
// contains (query.Rows.Scan over the whole key space), after giving every
// entry without a row one; Scan and ScanIDs map them to entries and to
// ids.
func (s *region) scan(cube []lph.Bounds, buf []int32) []int32 {
	s.rows.Grow(len(s.entries)-s.rows.Len(), s.k)
	for i := s.rows.Len(); i < len(s.entries); i++ {
		s.rows.Add(s.keys[i], int32(s.entries[i].Obj), int32(i), s.entries[i].Point)
	}
	s.rows.Settle()
	buf, tested := s.rows.Scan(cube, 0, ^lph.Key(0), buf)
	s.rowTests += tested
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

// Scan is ScanIDs that appends the matching entries instead of their ids:
// the same entries in the same order, under the same rules for buf.
func (m *MemStore) Scan(index string, r query.Region, buf []Entry) []Entry {
	st, ok := m.regions[index]
	if !ok {
		return buf
	}
	st.hits = st.scan(r.Cube, st.hits[:0])
	for _, row := range st.hits {
		buf = append(buf, st.entries[st.rows.Ref(int(row))])
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
	buf = st.scan(r.Cube, buf)
	for i, row := range buf[n:] {
		buf[n+i] = st.rows.ID(int(row))
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

// DropIndex implements Store.
func (m *MemStore) DropIndex(index string) error {
	delete(m.regions, index)
	return nil
}

// Close implements Store (no resources to release).
func (m *MemStore) Close() error { return nil }
