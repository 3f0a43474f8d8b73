package core

import (
	"encoding/binary"
	"fmt"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wal"
)

// WALStore is the durable Store backend: an in-memory image (a
// MemStore, authoritative for every read) in front of a write-ahead
// log with periodic compacting snapshots (internal/wal). Every
// mutation is applied to the image and journaled; on restart the store
// replays snapshot + journal and the node serves its region from disk
// instead of rebuilding it from the corpus.
//
// The store takes no clock of its own: compaction stamps come from
// WALStoreOptions.Now, so simulated deployments stay deterministic
// (the Clock seam) and live deployments pass wall time in.

// Journal record ops. A record is [1B op | 1B index-name len | name |
// op payload]; region payloads use the region codec (regioncodec.go).
// Snapshot records reuse opRegion, so one decoder replays both files.
const (
	opPut    = 1 // payload: one encoded entry
	opDelete = 2 // payload: 8B key BE + 4B obj BE
	opRegion = 3 // payload: encoded region — replaces the index wholesale
	opBatch  = 4 // payload: encoded region — appends to the index
	opDrop   = 5 // no payload
)

// WALStoreOptions configures a durable store.
type WALStoreOptions struct {
	// Dir is the store directory (snapshot + journal live here).
	Dir string
	// Sync is the journal fsync policy; SyncEvery its interval (see
	// wal.Options).
	Sync      wal.SyncPolicy
	SyncEvery int
	// CompactEvery triggers a compacting snapshot after that many
	// journal appends (0 uses the default of 4096; negative disables
	// auto-compaction).
	CompactEvery int
	// Now supplies compaction stamps (nanoseconds or any monotone
	// scale). Nil stamps snapshots with 0. A Platform passes the
	// simulated clock, so durable runs replay deterministically.
	Now func() int64
}

const defaultCompactEvery = 4096

// WALStore implements Store with durability; see the package comment.
type WALStore struct {
	mem   *MemStore
	ws    *wal.Store
	opts  WALStoreOptions
	rec   RecoveryStats
	since int // journal appends since the last compaction
	buf   []byte
}

// NewWALStore opens (creating if needed) a durable store rooted at
// opts.Dir and recovers its contents. A torn journal tail is truncated
// silently (the crash artifact); mid-journal corruption or a damaged
// snapshot fails loudly with wal.ErrCorrupt.
func NewWALStore(opts WALStoreOptions) (*WALStore, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: WALStore needs a directory")
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	st := &WALStore{mem: NewMemStore(), opts: opts}
	apply := func(p []byte) error { return st.applyRecord(p) }
	ws, err := wal.OpenStore(opts.Dir, wal.Options{Sync: opts.Sync, SyncEvery: opts.SyncEvery}, apply, apply)
	if err != nil {
		return nil, err
	}
	st.ws = ws
	s := ws.Stats()
	st.rec = RecoveryStats{
		RecordsReplayed: s.LogRecords,
		SnapshotRecords: s.SnapshotRecords,
		SnapshotStamp:   s.SnapshotStamp,
		LogBytes:        s.LogBytes,
	}
	return st, nil
}

// Recovery implements Recoverable.
func (st *WALStore) Recovery() RecoveryStats {
	st.rec.LogBytes = st.ws.LogBytes()
	return st.rec
}

// recordError is applyRecord's refusal: bytes that passed the log's CRC
// — which vouches for the disk, not for the writer — and are not a record
// this store writes, or not one its image can take.
type recordError string

func (e recordError) Error() string { return "core: journal record: " + string(e) }

// applyRecord replays one journal or snapshot record into the image, or
// refuses it with a recordError and leaves the image as it was.
func (st *WALStore) applyRecord(p []byte) error {
	if err := st.replay(p); err != nil {
		return recordError(err.Error())
	}
	return nil
}

func (st *WALStore) replay(p []byte) error {
	if len(p) < 2 {
		return fmt.Errorf("%d bytes", len(p))
	}
	op := p[0]
	nameLen := int(p[1])
	if len(p) < 2+nameLen {
		return fmt.Errorf("truncated index name")
	}
	index := string(p[2 : 2+nameLen])
	body := p[2+nameLen:]
	switch op {
	case opPut:
		key, e, rest, err := DecodeEntry(body)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("%d trailing bytes after a put", len(rest))
		}
		return st.mem.Put(index, key, e)
	case opDelete:
		if len(body) != 12 {
			return fmt.Errorf("delete body of %d bytes", len(body))
		}
		key := binary.BigEndian.Uint64(body[0:8])
		obj := ObjectID(int32(binary.BigEndian.Uint32(body[8:12])))
		_, err := st.mem.Delete(index, key, obj)
		return err
	case opRegion, opBatch:
		keys, entries, err := DecodeRegion(body, nil, nil)
		if err != nil {
			return err
		}
		if op == opRegion {
			return st.mem.ApplyRegion(index, keys, entries)
		}
		return st.mem.PutBatch(index, keys, entries)
	case opDrop:
		if len(body) != 0 {
			return fmt.Errorf("%d trailing bytes after a drop", len(body))
		}
		return st.mem.DropIndex(index)
	default:
		return fmt.Errorf("unknown op %d", op)
	}
}

// record frames and appends one journal record, then auto-compacts if
// the journal has grown past the configured interval.
func (st *WALStore) record(op byte, index string, body func([]byte) []byte) error {
	if len(index) > 255 {
		return fmt.Errorf("core: index name of %d bytes cannot be journaled", len(index))
	}
	st.buf = append(st.buf[:0], op, byte(len(index)))
	st.buf = append(st.buf, index...)
	if body != nil {
		st.buf = body(st.buf)
	}
	if err := st.ws.Append(st.buf); err != nil {
		return err
	}
	st.since++
	if st.opts.CompactEvery > 0 && st.since >= st.opts.CompactEvery {
		return st.Compact()
	}
	return nil
}

// Compact writes a snapshot of the current image and truncates the
// journal. Called automatically every CompactEvery appends; callers
// may also force it (a clean shutdown, a test).
func (st *WALStore) Compact() error {
	stamp := int64(0)
	if st.opts.Now != nil {
		stamp = st.opts.Now()
	}
	err := st.ws.Compact(stamp, func(emit func([]byte) error) error {
		for _, index := range st.mem.Indexes() {
			var rec []byte
			st.mem.View(index, func(keys []lph.Key, entries []Entry) {
				rec = append(rec, opRegion, byte(len(index)))
				rec = append(rec, index...)
				rec = AppendRegion(rec, keys, entries)
			})
			if rec == nil {
				continue
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	st.since = 0
	st.rec.Compactions++
	st.rec.SnapshotStamp = stamp
	return nil
}

// --- Store interface: reads delegate to the image, writes journal. ---

func (st *WALStore) Put(index string, key lph.Key, e Entry) error {
	if err := st.mem.Put(index, key, e); err != nil {
		return err
	}
	return st.record(opPut, index, func(b []byte) []byte { return AppendEntry(b, key, e) })
}

func (st *WALStore) PutBatch(index string, keys []lph.Key, entries []Entry) error {
	if len(keys) == 0 && len(entries) == 0 {
		return nil
	}
	if err := st.mem.PutBatch(index, keys, entries); err != nil {
		return err
	}
	return st.record(opBatch, index, func(b []byte) []byte { return AppendRegion(b, keys, entries) })
}

func (st *WALStore) Delete(index string, key lph.Key, obj ObjectID) (bool, error) {
	ok, err := st.mem.Delete(index, key, obj)
	if err != nil || !ok {
		return ok, err
	}
	return ok, st.record(opDelete, index, func(b []byte) []byte {
		var kb [12]byte
		binary.BigEndian.PutUint64(kb[0:8], key)
		binary.BigEndian.PutUint32(kb[8:12], uint32(obj))
		return append(b, kb[:]...)
	})
}

// ScanIDs implements Store.
func (st *WALStore) ScanIDs(index string, r query.Region, buf []int32) []int32 {
	return st.mem.ScanIDs(index, r, buf)
}

func (st *WALStore) Size(index string) int { return st.mem.Size(index) }
func (st *WALStore) TotalSize() int        { return st.mem.TotalSize() }
func (st *WALStore) Indexes() []string     { return st.mem.Indexes() }

func (st *WALStore) View(index string, fn func(keys []lph.Key, entries []Entry)) {
	st.mem.View(index, fn)
}

func (st *WALStore) ApplyRegion(index string, keys []lph.Key, entries []Entry) error {
	if err := st.mem.ApplyRegion(index, keys, entries); err != nil {
		return err
	}
	return st.record(opRegion, index, func(b []byte) []byte { return AppendRegion(b, keys, entries) })
}

func (st *WALStore) ExtractUpTo(index string, base, split lph.Key) ([]lph.Key, []Entry, error) {
	keys, entries, err := st.mem.ExtractUpTo(index, base, split)
	if err != nil {
		return keys, entries, err
	}
	if len(keys) == 0 {
		return keys, entries, nil
	}
	// Journal the survivors wholesale: extraction is rare (twice an
	// index per migration: all of the light node's, the heavy node's
	// lower half) and a replace record keeps replay trivial.
	err = st.record(opRegion, index, func(b []byte) []byte {
		st.mem.View(index, func(k []lph.Key, e []Entry) { b = AppendRegion(b, k, e) })
		return b
	})
	return keys, entries, err
}

func (st *WALStore) DropIndex(index string) error {
	if st.mem.Size(index) == 0 {
		return st.mem.DropIndex(index)
	}
	if err := st.mem.DropIndex(index); err != nil {
		return err
	}
	return st.record(opDrop, index, nil)
}

// Close flushes and closes the journal. The image is discarded; the
// next NewWALStore on the same directory recovers it.
func (st *WALStore) Close() error { return st.ws.Close() }

// WALStoreFactory returns a StoreFactory giving every node its own
// durable store under baseDir (one subdirectory per node id). The
// template's Dir field is ignored.
func WALStoreFactory(baseDir string, template WALStoreOptions) StoreFactory {
	return func(node uint64) (Store, error) {
		opts := template
		opts.Dir = NodeDataDir(baseDir, node)
		return NewWALStore(opts)
	}
}

// NodeDataDir is the canonical per-node store directory under a data
// root — shared by the factory and by tooling that inspects it.
func NodeDataDir(baseDir string, node uint64) string {
	return fmt.Sprintf("%s/node-%016x", baseDir, node)
}
