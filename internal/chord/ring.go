// Package chord implements the Chord distributed hash table the index
// architecture is built on (§3 of the paper; Stoica et al. [20]): a
// 64-bit identifier ring with base-2 finger tables, successor lists,
// proximity neighbor selection (Chord-PNS, Dabek et al. [9]), and
// iterative lookups over simulated messages. Routing state has one
// writer, an oracle that installs the stabilized state the paper
// measures in (BuildAllTables) and repairs a neighbourhood after churn
// (FixAround).
package chord

// ID is a 64-bit ring identifier. Arithmetic wraps modulo 2^64.
type ID = uint64

// InOpen reports whether x lies in the open ring interval (a, b).
// When a == b the interval spans the whole ring except a.
func InOpen(a, x, b ID) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b
}

// InOpenClosed reports whether x lies in the half-open ring interval
// (a, b]. When a == b the interval is the whole ring.
func InOpenClosed(a, x, b ID) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b
}

// Dist returns the clockwise distance from a to b on the ring.
func Dist(a, b ID) ID { return b - a }
