// Package flat holds the open-addressed table the query path keeps its
// per-query state in (DESIGN.md §6, "Query evaluation state"): visited
// marks, candidate-set membership, word coverage and influence
// probabilities. A Table replaces a Go map where the map's hashing,
// bucket chasing and per-query allocation were the cost: a lookup is one
// multiplicative hash and (at load ≤ ½) usually one probe, and Reset hands
// the storage to the next query without touching more than the last one
// wrote.
package flat

// Table maps (int64, int32) keys — an ID and a small qualifier such as a
// query-topic position — to rows numbered 0, 1, 2, … in insertion order,
// each carrying one float64 that starts at zero unless the table was reset
// as a plain set. The zero value is an empty set; it is not safe for
// concurrent use.
type Table struct {
	valued bool
	// slots is the open-addressed index, a power of two long (mask+1): row+1
	// of the key that hashed (or linearly probed) here, 0 for an empty slot.
	slots []uint32
	mask  uint32
	rows  []row
	vals  []float64 // one per row when valued
}

// row is one key and the slot that points at it, so Reset clears only the
// slots that were written.
type row struct {
	key  int64
	sub  int32
	slot uint32
}

// Reset empties the table in O(Len), keeping the storage for reuse; valued
// says whether rows carry a value or the table is a set.
func (t *Table) Reset(valued bool) {
	for i := range t.rows {
		t.slots[t.rows[i].slot] = 0
	}
	t.rows, t.vals, t.valued = t.rows[:0], t.vals[:0], valued
}

// CopyFrom makes t an independent copy of src, reusing t's storage.
func (t *Table) CopyFrom(src *Table) {
	t.valued, t.mask = src.valued, src.mask
	t.slots = append(t.slots[:0], src.slots...)
	t.rows = append(t.rows[:0], src.rows...)
	t.vals = append(t.vals[:0], src.vals...)
}

// Len returns the number of keys.
func (t *Table) Len() int { return len(t.rows) }

// Footprint returns the bytes of storage the table retains across Reset.
func (t *Table) Footprint() int { return 4*cap(t.slots) + 16*cap(t.rows) + 8*cap(t.vals) }

// hash is Fibonacci hashing of the two key parts; callers mask it.
func hash(key int64, sub int32) uint32 {
	h := (uint64(key) + uint64(uint32(sub))*0xD6E8FEB86659FD93) * 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

// Find returns the row of (key, sub), or -1 if it is absent. (Kept within
// the compiler's inlining budget: it is the innermost call of a query.)
func (t *Table) Find(key int64, sub int32) int {
	if len(t.rows) == 0 {
		return -1
	}
	for i := hash(key, sub); ; i++ {
		s := t.slots[i&t.mask]
		if s == 0 || t.rows[s-1].key == key && t.rows[s-1].sub == sub {
			return int(s) - 1
		}
	}
}

// Insert returns the row of (key, sub), appending one (valued 0) if the key
// is new.
func (t *Table) Insert(key int64, sub int32) int {
	if 2*(len(t.rows)+1) > len(t.slots) {
		t.grow()
	}
	for i := hash(key, sub); ; i++ {
		s := t.slots[i&t.mask]
		if s == 0 {
			t.rows = append(t.rows, row{key, sub, i & t.mask})
			t.slots[i&t.mask] = uint32(len(t.rows))
			if t.valued {
				t.vals = append(t.vals, 0)
			}
			return len(t.rows) - 1
		}
		if t.rows[s-1].key == key && t.rows[s-1].sub == sub {
			return int(s) - 1
		}
	}
}

// Val returns row r's value in a valued table, for reading and writing; the
// pointer is valid until the next Insert or Reset.
func (t *Table) Val(r int) *float64 { return &t.vals[r] }

// grow doubles the index and re-seats every row.
func (t *Table) grow() {
	n := 2 * len(t.slots)
	if n < 16 {
		n = 16
	}
	t.slots, t.mask = make([]uint32, n), uint32(n-1)
	for r := range t.rows {
		i := hash(t.rows[r].key, t.rows[r].sub) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = uint32(r + 1)
		t.rows[r].slot = i
	}
}
