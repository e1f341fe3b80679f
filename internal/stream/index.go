package stream

import "slices"

// idIndex maps every element ever ingested to its arrival number.
// Producers mostly number posts in the order they arrive, so the arrivals
// up to the first one that breaks that order are kept as a sorted array of
// IDs — an arrival number is a position in it, found by bisection, at 8
// bytes an element — and only the arrivals after it in a map, at about
// four times that.
type idIndex struct {
	// sorted holds the IDs of arrivals 0, 1, ..., len(sorted)-1, strictly
	// increasing.
	sorted []ElemID
	// rest maps the IDs of the later arrivals to their numbers; nil
	// until the first arrival out of order.
	rest map[ElemID]int
}

// len is the number of arrivals.
func (x *idIndex) len() int { return len(x.sorted) + len(x.rest) }

// lookup returns id's arrival number. A new ID is usually past the
// sorted array's end, which is checked first.
func (x *idIndex) lookup(id ElemID) (int, bool) {
	if n := len(x.sorted); n > 0 && id <= x.sorted[n-1] {
		if i, ok := slices.BinarySearch(x.sorted, id); ok {
			return i, true
		}
	}
	seq, ok := x.rest[id]
	return seq, ok
}

// add records the next arrival, which the caller has checked is new.
func (x *idIndex) add(id ElemID) {
	if x.rest == nil && (len(x.sorted) == 0 || id > x.sorted[len(x.sorted)-1]) {
		x.sorted = append(x.sorted, id)
		return
	}
	if x.rest == nil {
		x.rest = make(map[ElemID]int)
	}
	x.rest[id] = x.len()
}

// bytes approximates the index's heap footprint.
func (x *idIndex) bytes() int64 {
	return 8*int64(cap(x.sorted)) + mapEntryBytes*int64(len(x.rest))
}
