package netrt

// Durable node state. With Config.DataDir set, a node keeps in that
// directory what it cannot re-derive: the online publishes and deletes
// it applied as owner. The corpus is derived state — every boot, with
// or without a data directory, builds it from DataConfig, and the
// handshake signature holds every member to the same one — so it is
// never written (EXPERIMENTS.md, "Persisted corpus: measured, then
// deleted").
//
// The record stream is self-describing:
//
//	meta     [tag=1 | 1B metric len | metric | 8B seed | 4B objects | 4B dim | 4B landmarks]
//	publish  [tag=4 | 4B id  | 8B key | 2B point len | 8B per comp | encoded object]
//	delete   [tag=5 | 4B id]
//
// All integers big-endian. The meta record is written when a directory
// is first used and guards against pointing a node at a directory
// written for a different corpus: the journaled keys and points are
// only meaningful under the config that mapped them, so a mismatch is a
// loud error. Likewise mid-log corruption (wal.ErrCorrupt) aborts
// startup — a node must never come up without its mutations.
//
// Publish and delete records are incremental: every online mutation the
// node accepts as owner appends exactly one record before it is applied
// or acknowledged (publish.go), and a restart replays them in log order
// on top of the freshly built corpus. The journal is never compacted.
//
// Tags 2 and 3 were the landmark and entry records of the corpus
// snapshot earlier versions wrote. They are read past, so such a
// directory still opens and its mutation records replay.

import (
	"bytes"
	"fmt"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/wal"
)

const (
	recMeta     byte = 1
	recLandmark byte = 2 // legacy, skipped
	recEntry    byte = 3 // legacy, skipped
	recPublish  byte = 4
	recDelete   byte = 5
)

// encodeMeta builds the meta record payload for cfg (defaults already
// filled). Byte-compared on recovery, so the encoding must be
// canonical.
func encodeMeta(cfg DataConfig) []byte {
	b := append(make([]byte, 0, 2+len(cfg.Metric)+8+12), recMeta, byte(len(cfg.Metric)))
	b = append(b, cfg.Metric...)
	b = appendU64(b, uint64(cfg.Seed))
	b = appendU32(b, uint32(cfg.Objects))
	b = appendU32(b, uint32(cfg.Dim))
	return appendU32(b, uint32(cfg.Landmarks))
}

// durableMut is one replayed online mutation, applied in log order to
// the node's delta at Start.
type durableMut struct {
	id    int32
	key   lph.Key
	point []float64
	obj   []byte
	del   bool
	val   any // obj decoded (decodeJournaled), for a publish
}

// decodeJournaled decodes the object of every journaled publish, which
// the record carries encoded: the key and point are journaled, the
// decoded object a query's distance reads is not. Each one was mapped
// before it was journaled, so a failure means the directory does not
// belong to this corpus.
func decodeJournaled(c corpus, muts []durableMut) error {
	for i := range muts {
		if m := &muts[i]; !m.del {
			var err error
			if m.val, err = c.Decode(m.obj); err != nil {
				return fmt.Errorf("netrt: journaled publish of id %d: %w", m.id, err)
			}
		}
	}
	return nil
}

// rawState accumulates the record stream during replay.
type rawState struct {
	meta     []byte
	muts     []durableMut
	replayed int
}

// add takes one record. A publish or delete record is read like a frame
// body (proto.go's bodyReader): a refusal is the decoder's
// *wire.FrameError, and nothing of the record is kept.
func (r *rawState) add(p []byte) error {
	if len(p) == 0 {
		return fmt.Errorf("netrt: empty durable record")
	}
	r.replayed++
	body := bodyReader{b: p[1:]}
	var m durableMut
	switch p[0] {
	case recMeta:
		r.meta = append([]byte(nil), p...)
		return nil
	case recLandmark, recEntry:
		return nil // an earlier version's corpus snapshot: derivable, never read back
	case recPublish:
		m.id, m.key = int32(body.u32()), lph.Key(body.u64())
		m.point = make([]float64, body.fits(int(body.u16()), 8))
		for j := range m.point {
			m.point[j] = body.f64()
		}
		m.obj = body.rest()
	case recDelete:
		m.id, m.del = int32(body.u32()), true
	default:
		return fmt.Errorf("netrt: unknown durable record tag %d", p[0])
	}
	m, err := decoded(&body, m, "durable record")
	if err == nil {
		r.muts = append(r.muts, m)
	}
	return err
}

// encodeMutation builds the record for one mutation; point is a
// publish's index-space point (unused for a delete).
func encodeMutation(m *pubMsg, point []float64) []byte {
	if m.Delete {
		return appendU32([]byte{recDelete}, uint32(m.ID))
	}
	rec := append(make([]byte, 0, 1+4+8+2+8*len(point)+len(m.Obj)), recPublish)
	rec = appendU32(rec, uint32(m.ID))
	rec = appendU64(rec, m.Key)
	rec = appendU16(rec, uint16(len(point)))
	for _, x := range point {
		rec = appendF64(rec, x)
	}
	return append(rec, m.Obj...)
}

// journalMutation appends one mutation record to the node's WAL: a
// publish with the key and point x that this node derived, not the key
// the frame routed by, so that replay restores the extra apply placed.
// The caller acts on the error: a mutation whose record was not written
// is neither applied nor acknowledged. Nodes without a data directory
// journal nothing. Executor context: the WAL's interval-sync append is
// a buffered file write.
//
//lint:context executor
func (n *Node) journalMutation(m *pubMsg, x *extra) error {
	if n.store == nil {
		return nil
	}
	if x == nil {
		return n.store.Append(encodeMutation(m, nil))
	}
	rec := *m
	rec.Key = uint64(n.data.Part().Ring(x.key))
	return n.store.Append(encodeMutation(&rec, x.point))
}

// openDurable replays the data directory and returns the still-open
// store — the node keeps it for mutation appends and closes it at
// shutdown — with the mutations to replay on top of the corpus. On
// first use (nothing in the directory) it writes the meta record;
// afterwards recovered is true and replayed counts the records read. A
// directory written for a different config, or a corrupt log, is a hard
// error, found before any time is spent building the corpus.
func openDurable(dir string, cfg DataConfig) (*wal.Store, bool, int, []durableMut, error) {
	cfg.fillDefaults()
	var raw rawState
	st, err := wal.OpenStore(dir, wal.Options{Sync: wal.SyncInterval}, raw.add, raw.add)
	if err != nil {
		return nil, false, 0, nil, fmt.Errorf("netrt: open data dir %s: %w", dir, err)
	}
	fail := func(err error) (*wal.Store, bool, int, []durableMut, error) {
		_ = st.Close() // startup already failing; the original error is the signal
		return nil, false, 0, nil, err
	}
	meta := encodeMeta(cfg)
	if raw.replayed == 0 {
		if err = st.Append(meta); err == nil {
			err = st.Sync()
		}
		if err != nil {
			return fail(fmt.Errorf("netrt: initialise data dir %s: %w", dir, err))
		}
		return st, false, 0, nil, nil
	}
	if !bytes.Equal(raw.meta, meta) {
		return fail(fmt.Errorf("netrt: data dir %s was built for a different corpus config", dir))
	}
	return st, true, raw.replayed, raw.muts, nil
}
