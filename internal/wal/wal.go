// Package wal is the durable-state substrate: a CRC-framed append-only
// record log plus an atomically replaced snapshot file, the two halves
// of the classic WAL + checkpoint design (DESIGN.md §14).
//
// The package is deliberately dumb about content: records are opaque
// byte payloads. The policy layers above it — core's walstore (index
// entries and region mutations) and netrt's mutation journal — define
// their own record encodings. What this package owns
// is the failure model:
//
//   - A record is framed [u32 length | u32 CRC-32C | payload]. Appends
//     are sequential; a configurable fsync policy decides when the OS
//     is forced to make them durable.
//   - A crash can tear the *tail* of the log: recovery reads every
//     fully-valid record, then truncates the file at the first
//     incomplete frame so later appends continue from a clean boundary.
//     Torn tails are expected and silent — they are what SIGKILL
//     mid-append leaves behind.
//   - A CRC mismatch on a fully-present record is NOT a torn tail: it
//     is corruption (bit rot, a foreign file, a bug). Recovery fails
//     loudly with ErrCorrupt instead of skipping past it — silently
//     resuming from a log whose middle is garbage would serve wrong
//     answers with a straight face.
//
// The package never reads the wall clock: callers supply timestamps
// (snapshot stamps) explicitly, so a deterministic runtime can route
// them through its Clock seam and replay byte-identically.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// frameHeader is the per-record framing overhead: u32 payload length +
// u32 CRC-32C of the payload.
const frameHeader = 8

// MaxRecord bounds a single record's payload, mirroring the wire
// layer's MaxFramePayload guard: a corrupt length field can make
// recovery drop the tail, never allocate unbounded memory.
const MaxRecord = 1 << 26 // 64 MiB

// castagnoli is the CRC-32C table (the polynomial used by modern
// storage systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a CRC mismatch (or impossible length) on a record
// that is fully present in the file — mid-log corruption, as opposed to
// a torn tail. Callers must fail loudly: the log's contents after the
// bad record cannot be trusted.
var ErrCorrupt = errors.New("wal: corrupt record (CRC mismatch mid-log)")

// SyncPolicy says when Append forces the log to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append — maximum durability, one
	// disk flush per record.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs every Options.SyncEvery appends (and on
	// Close/Compact). A crash can lose at most SyncEvery-1 records that
	// Append already acknowledged.
	SyncInterval
	// SyncNever leaves flushing entirely to the OS. Fastest; a crash
	// can lose anything since the last snapshot.
	SyncNever
)

// Options configures a Log or Store.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the append interval for SyncInterval (default 64).
	SyncEvery int
}

func (o *Options) fill() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
}

// Log is one CRC-framed append-only record file.
type Log struct {
	f        *os.File
	opts     Options
	pending  int   // appends since the last fsync
	size     int64 // current file size (append offset)
	replayed int   // records recovered by Open
}

// appendTo frames one record onto buf.
func appendRecord(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// scan reads records from r until EOF. It returns the byte offset of
// the end of the last fully-valid record. A truncated frame at the end
// of the stream (header or payload cut short) stops the scan cleanly —
// the torn-tail case. A fully-present record whose CRC does not match,
// or whose declared length is impossible, returns ErrCorrupt.
func scan(r io.Reader, fn func(payload []byte) error) (valid int64, err error) {
	var hdr [frameHeader]byte
	var buf []byte
	for {
		n, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return valid, nil // clean end on a record boundary
		}
		if err != nil {
			// Partial header at EOF: torn tail.
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, nil
			}
			return valid, err
		}
		_ = n
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		if ln > MaxRecord {
			// An impossible length with more bytes behind it is
			// corruption; at the very tail it is indistinguishable from
			// a torn header, but trusting it would mean skipping real
			// data — fail loud either way.
			return valid, fmt.Errorf("%w: declared length %d", ErrCorrupt, ln)
		}
		if int(ln) > cap(buf) {
			buf = make([]byte, ln)
		}
		buf = buf[:ln]
		m, err := io.ReadFull(r, buf)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || err == io.EOF {
				return valid, nil // payload cut short: torn tail
			}
			return valid, err
		}
		_ = m
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			// The frame is fully present but its bytes are wrong.
			return valid, ErrCorrupt
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return valid, err
			}
		}
		valid += frameHeader + int64(ln)
	}
}

// OpenLog opens (creating if absent) the log at path, replays every
// valid record through fn, truncates a torn tail, and positions the
// log for appends. Mid-log corruption returns ErrCorrupt and a nil
// Log. fn may be nil to skip replay contents.
func OpenLog(path string, opts Options, fn func(payload []byte) error) (*Log, error) {
	opts.fill()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, opts: opts}
	count := 0
	valid, err := scan(f, func(p []byte) error {
		count++
		if fn != nil {
			return fn(p)
		}
		return nil
	})
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, fmt.Errorf("wal: replay %s: %w", filepath.Base(path), err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() //lint:allow errdrop open failed after stat error; the stat error is the one reported
		return nil, err
	}
	if st.Size() > valid {
		// Torn tail: cut the file back to the last valid boundary so
		// the next append starts a clean frame.
		if err := f.Truncate(valid); err != nil {
			_ = f.Close() //lint:allow errdrop truncate failed; its error is the one reported
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", filepath.Base(path), err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() //lint:allow errdrop sync failed; its error is the one reported
			return nil, fmt.Errorf("wal: sync after tail truncation: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close() //lint:allow errdrop seek failed; its error is the one reported
		return nil, err
	}
	l.size = valid
	l.replayed = count
	return l, nil
}

// Replayed returns how many records Open recovered.
func (l *Log) Replayed() int { return l.replayed }

// Size returns the log's current byte size.
func (l *Log) Size() int64 { return l.size }

// Append frames and writes one record, applying the sync policy. The
// payload is copied into the file; the caller may reuse it.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	frame := appendRecord(nil, payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.pending++
	switch l.opts.Sync {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if l.pending >= l.opts.SyncEvery {
			return l.Sync()
		}
	}
	return nil
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.pending = 0
	return nil
}

// Reset truncates the log to empty (after a successful snapshot has
// captured its contents) and syncs the truncation.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync after reset: %w", err)
	}
	l.size = 0
	l.pending = 0
	return nil
}

// Close syncs pending appends and closes the file.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
