package netrt

// Durable node state. With Config.DataDir set, a node persists its
// corpus — landmark objects, every entry's encoded object, ring key
// and index-space point — to a WAL-backed store in that directory on
// first boot, and on every later boot restores it from disk instead of
// regenerating and re-mapping the corpus. Recovery performs zero
// distance computations: keys and points come straight off the
// snapshot, and the embedding is rebuilt from the persisted landmark
// objects only so query-time mapping still works.
//
// The record stream is self-describing:
//
//	meta     [tag=1 | 1B metric len | metric | 8B seed | 4B objects | 4B dim | 4B landmarks]
//	landmark [tag=2 | encoded object]
//	entry    [tag=3 | 4B idx | 8B key | 2B point len | 8B per comp | encoded object]
//	publish  [tag=4 | 4B id  | 8B key | 2B point len | 8B per comp | encoded object]
//	delete   [tag=5 | 4B id]
//
// All integers big-endian. The meta record guards against pointing a
// node at a directory built for a different corpus: mismatch is a loud
// error, never a silent rebuild. Likewise mid-log corruption
// (wal.ErrCorrupt) aborts startup rather than falling back to
// regeneration — a rebuilt corpus would silently mask durability bugs.
//
// The first three tags form the corpus snapshot, written once by
// Compact on first boot. Publish and delete records are incremental:
// every online mutation the node applies as owner appends exactly one
// record (publish.go), and a restart replays them in log order on top
// of the recovered corpus — the snapshot is never recompacted online.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/wal"
)

const (
	recMeta     byte = 1
	recLandmark byte = 2
	recEntry    byte = 3
	recPublish  byte = 4
	recDelete   byte = 5
)

// encodeMeta builds the meta record payload for cfg (defaults already
// filled). Byte-compared on recovery, so the encoding must be
// canonical.
func encodeMeta(cfg DataConfig) []byte {
	b := make([]byte, 0, 2+len(cfg.Metric)+8+12)
	b = append(b, recMeta, byte(len(cfg.Metric)))
	b = append(b, cfg.Metric...)
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], uint64(cfg.Seed))
	b = append(b, u[:]...)
	binary.BigEndian.PutUint32(u[:4], uint32(cfg.Objects))
	b = append(b, u[:4]...)
	binary.BigEndian.PutUint32(u[:4], uint32(cfg.Dim))
	b = append(b, u[:4]...)
	binary.BigEndian.PutUint32(u[:4], uint32(cfg.Landmarks))
	return append(b, u[:4]...)
}

// rawEntry is one decoded entry record, held until the metric-specific
// restore turns object bytes back into objects.
type rawEntry struct {
	key   lph.Key
	point []float64
	obj   []byte
	set   bool
}

// durableMut is one replayed online mutation, applied in log order on
// top of the recovered corpus (publish.go's applyRecovered).
type durableMut struct {
	id    int32
	key   lph.Key
	point []float64
	obj   []byte
	del   bool
}

// rawState accumulates the record stream during replay.
type rawState struct {
	meta      []byte
	landmarks [][]byte
	entries   []rawEntry
	muts      []durableMut
	replayed  int
}

func (r *rawState) add(p []byte) error {
	if len(p) == 0 {
		return fmt.Errorf("netrt: empty durable record")
	}
	r.replayed++
	switch p[0] {
	case recMeta:
		r.meta = append([]byte(nil), p...)
	case recLandmark:
		r.landmarks = append(r.landmarks, append([]byte(nil), p[1:]...))
	case recEntry:
		const hdr = 1 + 4 + 8 + 2
		if len(p) < hdr {
			return fmt.Errorf("netrt: entry record truncated (%d bytes)", len(p))
		}
		idx := int(binary.BigEndian.Uint32(p[1:]))
		key := lph.Key(binary.BigEndian.Uint64(p[5:]))
		plen := int(binary.BigEndian.Uint16(p[13:]))
		rest := p[hdr:]
		if len(rest) < 8*plen {
			return fmt.Errorf("netrt: entry %d point truncated", idx)
		}
		point := make([]float64, plen)
		for j := range point {
			point[j] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*j:]))
		}
		for idx >= len(r.entries) {
			r.entries = append(r.entries, rawEntry{})
		}
		r.entries[idx] = rawEntry{
			key:   key,
			point: point,
			obj:   append([]byte(nil), rest[8*plen:]...),
			set:   true,
		}
	case recPublish:
		const hdr = 1 + 4 + 8 + 2
		if len(p) < hdr {
			return fmt.Errorf("netrt: publish record truncated (%d bytes)", len(p))
		}
		id := int32(binary.BigEndian.Uint32(p[1:]))
		key := lph.Key(binary.BigEndian.Uint64(p[5:]))
		plen := int(binary.BigEndian.Uint16(p[13:]))
		rest := p[hdr:]
		if len(rest) < 8*plen {
			return fmt.Errorf("netrt: publish record %d point truncated", id)
		}
		point := make([]float64, plen)
		for j := range point {
			point[j] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*j:]))
		}
		r.muts = append(r.muts, durableMut{
			id: id, key: key, point: point,
			obj: append([]byte(nil), rest[8*plen:]...),
		})
	case recDelete:
		if len(p) != 5 {
			return fmt.Errorf("netrt: delete record is %d bytes, want 5", len(p))
		}
		r.muts = append(r.muts, durableMut{id: int32(binary.BigEndian.Uint32(p[1:])), del: true})
	default:
		return fmt.Errorf("netrt: unknown durable record tag %d", p[0])
	}
	return nil
}

// journalMutation appends one mutation record to the node's WAL — an
// incremental append, never a recompaction. Nodes without a data
// directory skip it. Executor context: the WAL's interval-sync append
// is a buffered file write, the same budget as the boot-time snapshot.
//
//lint:context executor
func (n *Node) journalMutation(m *pubMsg) {
	if n.store == nil {
		return
	}
	var rec []byte
	if m.Delete {
		rec = make([]byte, 5)
		rec[0] = recDelete
		binary.BigEndian.PutUint32(rec[1:], uint32(m.ID))
	} else {
		e := n.extras[m.ID]
		var u [8]byte
		rec = append(rec, recPublish)
		binary.BigEndian.PutUint32(u[:4], uint32(m.ID))
		rec = append(rec, u[:4]...)
		binary.BigEndian.PutUint64(u[:], uint64(e.key))
		rec = append(rec, u[:]...)
		binary.BigEndian.PutUint16(u[:2], uint16(len(e.point)))
		rec = append(rec, u[:2]...)
		for _, x := range e.point {
			binary.BigEndian.PutUint64(u[:], math.Float64bits(x))
			rec = append(rec, u[:]...)
		}
		rec = append(rec, e.obj...)
	}
	if err := n.store.Append(rec); err != nil {
		n.logf("durable append failed: %v", err)
	}
}

// persist emits the full record stream for the dataset: meta, then
// the landmark objects, then every entry with its key, point and
// encoded object.
func (d *dataset[T]) persist(cfg DataConfig, emit func(payload []byte) error) error {
	if err := emit(encodeMeta(cfg)); err != nil {
		return err
	}
	var buf []byte
	for _, lm := range d.lms {
		buf = append(buf[:0], recLandmark)
		buf = append(buf, d.enc(lm)...)
		if err := emit(buf); err != nil {
			return err
		}
	}
	var u [8]byte
	for i := range d.objs {
		buf = append(buf[:0], recEntry)
		binary.BigEndian.PutUint32(u[:4], uint32(i))
		buf = append(buf, u[:4]...)
		binary.BigEndian.PutUint64(u[:], uint64(d.Key(i)))
		buf = append(buf, u[:]...)
		p := d.Point(i)
		binary.BigEndian.PutUint16(u[:2], uint16(len(p)))
		buf = append(buf, u[:2]...)
		for _, x := range p {
			binary.BigEndian.PutUint64(u[:], math.Float64bits(x))
			buf = append(buf, u[:]...)
		}
		buf = append(buf, d.enc(d.objs[i])...)
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// restoreDataset rebuilds a dataset from replayed records: objects and
// landmarks are decoded, keys and points are taken verbatim from the
// records (no re-mapping), and only the embedding machinery is
// reconstructed — from the persisted landmarks, not re-selected.
func restoreDataset[T any](cfg DataConfig, raw *rawState, space metric.Space[T], dec func([]byte) (T, error), enc func(T) []byte, random func(*rand.Rand) []byte) (*dataset[T], error) {
	if len(raw.entries) != cfg.Objects {
		return nil, fmt.Errorf("netrt: durable state holds %d entries, config wants %d", len(raw.entries), cfg.Objects)
	}
	if len(raw.landmarks) != cfg.Landmarks {
		return nil, fmt.Errorf("netrt: durable state holds %d landmarks, config wants %d", len(raw.landmarks), cfg.Landmarks)
	}
	lms := make([]T, len(raw.landmarks))
	for i, b := range raw.landmarks {
		lm, err := dec(b)
		if err != nil {
			return nil, fmt.Errorf("netrt: durable landmark %d: %w", i, err)
		}
		lms[i] = lm
	}
	objs := make([]T, len(raw.entries))
	for i := range raw.entries {
		if !raw.entries[i].set {
			return nil, fmt.Errorf("netrt: durable state missing entry %d", i)
		}
		o, err := dec(raw.entries[i].obj)
		if err != nil {
			return nil, fmt.Errorf("netrt: durable entry %d: %w", i, err)
		}
		objs[i] = o
	}
	d, err := assembleDataset(cfg, objs, lms, space, dec, enc, random)
	if err != nil {
		return nil, err
	}
	for i := range raw.entries {
		if got := len(raw.entries[i].point); got != d.cols.k {
			return nil, fmt.Errorf("netrt: durable entry %d has %d coordinates, want %d", i, got, d.cols.k)
		}
		d.cols.keys[i] = d.part.Unring(raw.entries[i].key)
		copy(d.cols.point(i), raw.entries[i].point)
	}
	d.seal(cfg)
	return d, nil
}

func restoreCorpus(cfg DataConfig, raw *rawState) (corpus, error) {
	switch cfg.Metric {
	case "euclid":
		space, dec, enc, random := euclidParts(cfg)
		return restoreDataset(cfg, raw, space, dec, enc, random)
	case "edit":
		space, dec, enc, random := editParts()
		return restoreDataset(cfg, raw, space, dec, enc, random)
	default:
		return nil, fmt.Errorf("netrt: unknown metric %q (want euclid or edit)", cfg.Metric)
	}
}

// openDurable returns the node's corpus backed by the data directory,
// plus the still-open store — the node keeps it for incremental
// mutation appends and closes it at shutdown. On first boot (empty
// directory) the corpus is built from cfg and snapshotted; on later
// boots it is restored entirely from disk — recovered reports which
// path ran, replayed how many records were read, and muts the online
// mutations to replay on top. A directory built for a different
// config, or a corrupt log, is a hard error: falling back to
// regeneration would silently defeat the durability guarantee.
func openDurable(dir string, cfg DataConfig) (corpus, *wal.Store, bool, int, []durableMut, error) {
	cfg.fillDefaults()
	var raw rawState
	apply := func(p []byte) error { return raw.add(p) }
	st, err := wal.OpenStore(dir, wal.Options{Sync: wal.SyncInterval}, apply, apply)
	if err != nil {
		return nil, nil, false, 0, nil, fmt.Errorf("netrt: open data dir %s: %w", dir, err)
	}
	fail := func(err error) (corpus, *wal.Store, bool, int, []durableMut, error) {
		_ = st.Close() // startup already failing; the original error is the signal
		return nil, nil, false, 0, nil, err
	}
	if raw.meta == nil {
		c, err := buildCorpus(cfg)
		if err != nil {
			return fail(err)
		}
		err = st.Compact(time.Now().UnixNano(), func(emit func(payload []byte) error) error {
			return c.persist(cfg, emit)
		})
		if err != nil {
			return fail(fmt.Errorf("netrt: persist corpus to %s: %w", dir, err))
		}
		return c, st, false, 0, nil, nil
	}
	if want := encodeMeta(cfg); !bytes.Equal(raw.meta, want) {
		return fail(fmt.Errorf("netrt: data dir %s was built for a different corpus config", dir))
	}
	c, err := restoreCorpus(cfg, &raw)
	if err != nil {
		return fail(err)
	}
	return c, st, true, raw.replayed, raw.muts, nil
}
