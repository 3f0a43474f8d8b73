package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Store pairs a snapshot file with a record log in one directory:
//
//	<dir>/snap.dat   last compacted snapshot (atomically replaced)
//	<dir>/wal.log    records appended since that snapshot
//
// Recovery replays the snapshot, then the log. Compact writes a fresh
// snapshot (write-to-temp, fsync, rename, fsync directory) and only
// then truncates the log, so a crash at any instant leaves either the
// old snapshot + full log or the new snapshot + empty log — never a
// state that loses acknowledged records.
//
// The snapshot is itself a sequence of CRC-framed records, prefixed by
// a stamp record the Store writes internally. Because snapshots are
// replaced atomically, a torn or corrupt snapshot is never expected:
// any framing error there is reported as corruption, loudly.
type Store struct {
	dir  string
	log  *Log
	opts Options

	snapRecords int   // records in the current snapshot (excluding the stamp)
	snapStamp   int64 // caller-supplied stamp of the last Compact (0 if none)
}

const (
	snapName = "snap.dat"
	logName  = "wal.log"
)

// Stats describes what recovery found and when the store last
// compacted. SnapshotStamp is whatever the caller passed to Compact —
// typically a Clock reading — so "snapshot age" stays in the caller's
// time domain.
type Stats struct {
	LogRecords      int   // log records replayed by OpenStore
	SnapshotRecords int   // records in the recovered snapshot
	SnapshotStamp   int64 // stamp passed to the last Compact, 0 if never
	LogBytes        int64 // current log size
}

// OpenStore opens (creating if needed) the store directory and replays
// its state: every snapshot record through snap, then every log record
// through logFn. Either callback may be nil.
func OpenStore(dir string, opts Options, snap, logFn func(payload []byte) error) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.replaySnapshot(snap); err != nil {
		return nil, err
	}
	l, err := OpenLog(filepath.Join(dir, logName), opts, logFn)
	if err != nil {
		return nil, err
	}
	s.log = l
	return s, nil
}

func (s *Store) replaySnapshot(fn func(payload []byte) error) error {
	f, err := os.Open(filepath.Join(s.dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no snapshot yet
		}
		return err
	}
	defer closeRead(f)
	first := true
	count := 0
	end, err := scan(f, func(p []byte) error {
		if first {
			first = false
			if len(p) != 8 {
				return fmt.Errorf("%w: snapshot stamp record has %d bytes", ErrCorrupt, len(p))
			}
			s.snapStamp = int64(binary.LittleEndian.Uint64(p))
			return nil
		}
		count++
		if fn != nil {
			return fn(p)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal: snapshot %s: %w", snapName, err)
	}
	// Snapshots are installed by atomic rename, so unlike the log a
	// short tail is not a crash artifact — it is corruption.
	st, serr := f.Stat()
	if serr != nil {
		return serr
	}
	if st.Size() != end {
		return fmt.Errorf("wal: snapshot %s: %w: %d trailing bytes", snapName, ErrCorrupt, st.Size()-end)
	}
	if st.Size() > 0 && first {
		return fmt.Errorf("wal: snapshot %s: %w: missing stamp record", snapName, ErrCorrupt)
	}
	s.snapRecords = count
	return nil
}

// closeRead closes a file opened read-only; close errors on read-only
// files carry no durability information.
func closeRead(f *os.File) {
	_ = f.Close() //lint:allow errdrop read-only close has no durability effect
}

// Append adds one record to the log under the configured sync policy.
func (s *Store) Append(payload []byte) error { return s.log.Append(payload) }

// Sync forces any buffered log appends to stable storage.
func (s *Store) Sync() error { return s.log.Sync() }

// Stats reports recovery and compaction counters.
func (s *Store) Stats() Stats {
	return Stats{
		LogRecords:      s.log.Replayed(),
		SnapshotRecords: s.snapRecords,
		SnapshotStamp:   s.snapStamp,
		LogBytes:        s.log.Size(),
	}
}

// LogBytes reports the current log size; callers use it (or their own
// mutation counters) to decide when to Compact.
func (s *Store) LogBytes() int64 { return s.log.Size() }

// Compact writes a fresh snapshot and truncates the log. The write
// callback emits the full current state as records via emit; stamp is
// an opaque caller timestamp stored in the snapshot (reported by Stats
// after recovery). If writing or installing the snapshot fails, the
// log is left untouched and the store remains usable.
func (s *Store) Compact(stamp int64, write func(emit func(payload []byte) error) error) error {
	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	count := 0
	var buf []byte
	emit := func(payload []byte) error {
		if len(payload) > MaxRecord {
			return fmt.Errorf("wal: snapshot record of %d bytes exceeds MaxRecord", len(payload))
		}
		buf = appendRecord(buf[:0], payload)
		if _, err := f.Write(buf); err != nil {
			return err
		}
		count++
		return nil
	}
	// Stamp record first, then the caller's state.
	var stampRec [8]byte
	binary.LittleEndian.PutUint64(stampRec[:], uint64(stamp))
	err = emit(stampRec[:])
	if err == nil {
		err = write(emit)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of the temp snapshot; the write error is the one reported
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup of the temp snapshot; the rename error is the one reported
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.log.Reset(); err != nil {
		return err
	}
	s.snapRecords = count - 1 // minus the stamp record
	s.snapStamp = stamp
	return nil
}

// syncDir fsyncs a directory so a rename within it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	closeRead(d)
	if err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}

// Close syncs and closes the log.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
