package core

import (
	"sort"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// Store is a node's local storage backend: every index entry the node
// is responsible for, per index scheme, keyed by ring key. The system
// talks only to this interface, so the backend is pluggable — the
// in-memory memstore (NewMemStore, the default, what the paper's
// simulations assume) or the durable walstore (NewWALStore), which
// journals every mutation to a write-ahead log and recovers the
// region after a process restart.
//
// Stores are NOT concurrency-safe: like the rest of the protocol
// state, a store belongs to the protocol executor and is only touched
// from it — reads included: Scan may bring the index it reads up to
// date with the mutations made since the last one.
//
// An index has one point length — its partitioner's K: every entry
// stored under it carries a point of that many coordinates, fixed by
// the first entry an empty index receives. Put, PutBatch and
// ApplyRegion refuse an entry (and with it the whole batch) whose point
// has another length and store nothing: no cube could ever contain it,
// so it would be kept where no query can return it. They refuse in the
// same way a batch that does not carry exactly one key per entry. The
// system validates against Part.K() before it stores (BulkLoad,
// Publish), so this is a backstop for callers that reach a store
// directly.
//
// Mutating methods also return an error so a durable backend can
// surface a failed journal write. On that error the in-memory state
// still reflects the mutation (reads stay coherent within the process),
// but durability of that mutation is not guaranteed — the system counts
// these in System.StoreErrors rather than silently dropping them.
type Store interface {
	// Put appends one entry under an index scheme.
	Put(index string, key lph.Key, e Entry) error
	// PutBatch appends a batch (bulk load, migration arrivals).
	PutBatch(index string, keys []lph.Key, entries []Entry) error
	// Delete removes the first entry matching (key, obj), reporting
	// whether one existed.
	Delete(index string, key lph.Key, obj ObjectID) (bool, error)

	// Scan appends the entries of one index whose points fall inside
	// the region's cube to buf and returns it: each matching entry
	// exactly once, in an order that is a function of the store's
	// mutation history (not the storage order View shows — callers that
	// need an order sort). A cube of another length than the index's
	// points contains none of them (Region.Contains). Hot callers pass a
	// reusable buffer (buf[:0]) — a scan that finds the store as the
	// previous one left it must not allocate when the buffer has
	// capacity, and the result must be fully consumed before the buffer
	// is reused.
	Scan(index string, r query.Region, buf []Entry) []Entry
	// ScanIDs is Scan that appends the matching entries' object ids
	// instead of the entries: the same objects in the same order, under
	// the same rules for buf.
	ScanIDs(index string, r query.Region, buf []int32) []int32
	// Size returns one index's entry count; TotalSize sums all indexes
	// (the paper's load measure).
	Size(index string) int
	TotalSize() int
	// Indexes returns the index schemes present, sorted — the
	// deterministic iteration order for migration and repair.
	Indexes() []string
	// View passes the index's backing slices to fn for read-only
	// inspection without copying. The slices are borrowed: fn must not
	// retain or mutate them.
	View(index string, fn func(keys []lph.Key, entries []Entry))

	// RegionSnapshot copies out one index's full contents — the unit of
	// bulk region transfer and of crash-time republication.
	RegionSnapshot(index string) ([]lph.Key, []Entry)
	// ApplyRegion replaces one index's contents wholesale (the receive
	// side of bulk transfer and replica repair). Empty input clears the
	// index; a refused replacement leaves it as it was.
	ApplyRegion(index string, keys []lph.Key, entries []Entry) error

	// ExtractUpTo removes and returns the entries whose ring key lies
	// in (base-1, split] — the lower half of the owner's range after a
	// load split. Drain removes and returns everything in one index.
	ExtractUpTo(index string, base, split lph.Key) ([]lph.Key, []Entry, error)
	Drain(index string) ([]lph.Key, []Entry, error)
	// DropIndex discards one index entirely (scheme undeployment).
	DropIndex(index string) error

	// Close releases backend resources (flushes and closes a WAL). The
	// store must not be used afterwards.
	Close() error
}

// StoreFactory builds the storage backend for one node. Config.Store
// installs one system-wide; nil means NewMemStore per node.
type StoreFactory func(node uint64) (Store, error)

// RecoveryStats describes what a durable store found on open and how
// its journal has evolved since — surfaced through Platform stats.
type RecoveryStats struct {
	// RecordsReplayed is the number of WAL records replayed on open.
	RecordsReplayed int
	// SnapshotRecords is the number of entries recovered from the last
	// compacted snapshot.
	SnapshotRecords int
	// SnapshotStamp is the clock reading passed to the last
	// compaction (zero if never compacted) — its age is the caller's
	// clock minus this.
	SnapshotStamp int64
	// Compactions counts snapshot compactions performed in-process.
	Compactions int
	// LogBytes is the journal's current size.
	LogBytes int64
}

// Recoverable is implemented by durable stores that can report
// recovery statistics (walstore). Memstore does not implement it.
type Recoverable interface {
	Recovery() RecoveryStats
}

// medianOffsetKey returns a ring key that splits the given keys
// roughly in half: entries with key <= result form the lower half with
// respect to the owner's range (pred, me]. The boolean is false when
// the set cannot be split (fewer than 2 distinct keys).
//
// Ring keys within one node's range (pred, me] are ordered by their
// clockwise offset from pred+1, which the caller supplies as base.
func medianOffsetKey(keys []lph.Key, base lph.Key) (lph.Key, bool) {
	if len(keys) < 2 {
		return 0, false
	}
	offs := make([]uint64, len(keys))
	for i, k := range keys {
		offs[i] = k - base // clockwise offset, wraps correctly
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	mid := offs[len(offs)/2]
	if mid == offs[0] {
		// All of the lower half shares one key with the upper half's
		// start — find the largest strictly-smaller offset boundary.
		// If every entry has the same key the store is unsplittable
		// (the paper's §4.3 observation: "the load balancing mechanism
		// can not divide the index entries associated with a single
		// key").
		last := offs[len(offs)-1]
		if offs[0] == last {
			return 0, false
		}
		// Use the first offset strictly above the median value.
		for _, o := range offs {
			if o > mid {
				mid = o
				break
			}
		}
	}
	// The split node takes (pred, base+mid-1]; entries at base+mid stay.
	return base + mid - 1, true
}
