package netrt

import (
	"sync/atomic"
	"unsafe"

	"landmarkdht/internal/lph"
)

// mapFloor is the size, in bytes, from which a node's boot columns leave
// the Go heap for a mapping of their own (colMem). It is the runtime's
// minimum heap goal (runtime.heapMinimum, 4 MiB at GOGC=100): the
// collector lets the heap reach that much before it runs whatever the
// live heap is, so columns smaller than it cost no headroom. Larger
// columns set the goal themselves, at twice the live heap, and query
// garbage fills the difference: a ring-scan member's 13 MiB of columns
// put its goal near 30 MB where its protocol state alone needs 4 MiB.
const mapFloor = 4 << 20

// liveMappings counts the column mappings made and not yet released.
var liveMappings atomic.Int64

// colMem is one anonymous mapping, outside the Go heap, that a node's
// boot columns are carved from: the euclid objects' slab and the columns'
// keys, ids, pos and pts. They hold no pointers and never change after
// seal, so the collector has nothing to scan in them and nothing to pace
// against. The node that built it owns it; release unmaps it, once, when
// nothing can read the columns any more. A nil *colMem is the heap:
// column makes, seal and release do nothing.
type colMem struct {
	mem  []byte
	used int
}

// colAlign keeps every column on a cache line, as the heap places an
// allocation this large on a page.
const colAlign = 64

// colBytes is what n elements of size bytes take in a colMem.
func colBytes(n, size int) int { return (n*size + colAlign - 1) &^ (colAlign - 1) }

// columnBytes is what cfg's boot columns take in a colMem: the slab of a
// euclid corpus, then keys, ids, pos and pts, as finishDataset and
// sortByKey carve them. cfg has its defaults filled.
func columnBytes(cfg DataConfig) int {
	n := cfg.Objects
	b := colBytes(n, 8) + 2*colBytes(n, 4) + colBytes(n*cfg.Landmarks, 4)
	if cfg.Metric == "euclid" {
		b += colBytes(n*cfg.Dim, 8)
	}
	return b
}

// newColMem maps size bytes when size reaches mapFloor; below it, it
// returns nil and the columns stay on the heap.
func newColMem(size int) (*colMem, error) {
	if size < mapFloor {
		return nil, nil
	}
	mem, err := mapColumns(size)
	if err != nil {
		return nil, err
	}
	liveMappings.Add(1)
	return &colMem{mem: mem}, nil
}

// column returns n zeroed elements carved from m, or made on the heap
// when m is nil or has no room left for them. E is pointer-free, so
// memory the collector does not see can hold it.
func column[E lph.Key | int32 | float32 | float64](m *colMem, n int) []E {
	elem := int(unsafe.Sizeof(*new(E)))
	if m == nil || n == 0 || colBytes(n, elem) > len(m.mem)-m.used {
		return make([]E, n)
	}
	s := unsafe.Slice((*E)(unsafe.Pointer(&m.mem[m.used])), n)
	m.used += colBytes(n, elem)
	return s
}

// seal makes the mapping read-only: a stray write to a column faults
// instead of changing answers.
func (m *colMem) seal() error {
	if m == nil {
		return nil
	}
	return sealColumns(m.mem)
}

// release unmaps m. A second call does nothing.
func (m *colMem) release() error {
	if m == nil || m.mem == nil {
		return nil
	}
	mem := m.mem
	m.mem = nil
	liveMappings.Add(-1)
	return unmapColumns(mem)
}
