package metric

import "sort"

// IDSet is a finite set of uint32 identifiers (tags, shingles, feature
// ids), stored sorted and deduplicated. With the Jaccard distance it
// forms another instance of the paper's generic metric space — useful
// for near-duplicate detection and tag-based similarity.
type IDSet []uint32

// NewIDSet builds a normalized set from arbitrary ids.
func NewIDSet(ids ...uint32) IDSet {
	if len(ids) == 0 {
		return nil
	}
	cp := append([]uint32(nil), ids...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, id := range cp[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return IDSet(out)
}

// Jaccard is the Jaccard distance 1 − |A∩B| / |A∪B|, a proper metric
// on finite sets (it satisfies the triangle inequality), bounded by 1.
// Two empty sets are at distance 0.
func Jaccard(a, b IDSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return 1 - float64(inter)/float64(union)
}

// JaccardSpace returns the set space under Jaccard distance, bounded
// by 1.
func JaccardSpace(name string) Space[IDSet] {
	return Space[IDSet]{Name: name, Dist: Jaccard, Bounded: true, Max: 1}
}
