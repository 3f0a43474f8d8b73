package metric

// Edit is the Levenshtein edit distance from the paper's footnote 2:
// the minimum number of point mutations (change, insert or delete a
// letter) required to turn one string into the other. It is the metric
// for the DNA/protein and sentence-search applications (§2 examples 1
// and 6).
func Edit(a, b string) float64 {
	return float64(EditInt(a, b))
}

// EditInt computes the edit distance as an integer using the two-row
// dynamic program (O(len(a)·len(b)) time, O(min) space). It allocates
// fresh rows on every call; hot paths reuse an EditScratch instead.
func EditInt(a, b string) int {
	var s EditScratch
	return s.EditInt(a, b)
}

// EditScratch is the reusable two-row workspace for the edit-distance
// dynamic program. The zero value is ready to use; rows grow to the
// longest string seen and are then reused, so a warm scratch computes
// distances with zero allocations.
//
// A scratch is not safe for concurrent use. Ownership rule (DESIGN.md
// §9): a scratch belongs to exactly one goroutine — in simulator terms,
// to one engine/trial. Sharing one across parallel trial engines is a
// data race.
type EditScratch struct {
	prev, curr []int
}

// Edit is the float64 form of EditInt, matching the metric.Distance
// signature via a method value: metric.Space{Dist: scratch.Edit}.
func (s *EditScratch) Edit(a, b string) float64 {
	return float64(s.EditInt(a, b))
}

// EditInt computes the edit distance reusing the scratch rows.
func (s *EditScratch) EditInt(a, b string) int {
	// Work over bytes: DNA/protein alphabets are ASCII. Ensure b is
	// the shorter string to minimize the row.
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	n := len(b) + 1
	if cap(s.prev) < n {
		s.prev = make([]int, n)
		s.curr = make([]int, n)
	}
	prev, curr := s.prev[:n], s.curr[:n]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if v := prev[j] + 1; v < m { // delete
				m = v
			}
			if v := curr[j-1] + 1; v < m { // insert
				m = v
			}
			curr[j] = m
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

// EditSpace returns a Space over strings under edit distance, bounded
// by maxLen (the maximum string length in the dataset): no two strings
// of length <= maxLen can be farther apart than maxLen edits.
func EditSpace(name string, maxLen int) Space[string] {
	return Space[string]{Name: name, Dist: Edit, Bounded: maxLen > 0, Max: float64(maxLen)}
}
