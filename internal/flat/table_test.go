package flat

import (
	"math/rand"
	"testing"
)

type modelKey struct {
	key int64
	sub int32
}

// model is the oracle: a Go map from key to row, in insertion order, and
// each row's value.
type model struct {
	valued bool
	rows   map[modelKey]int
	vals   []float64
}

func newModel(valued bool) *model {
	return &model{valued: valued, rows: make(map[modelKey]int)}
}

func (m *model) insert(k modelKey) int {
	if r, ok := m.rows[k]; ok {
		return r
	}
	m.rows[k] = len(m.vals)
	m.vals = append(m.vals, 0)
	return len(m.vals) - 1
}

// check compares every key the model holds, and a handful it does not,
// against the table.
func check(t *testing.T, step int, tab *Table, m *model, rng *rand.Rand, keys func() modelKey) {
	t.Helper()
	if tab.Len() != len(m.rows) {
		t.Fatalf("step %d: Len = %d, model holds %d", step, tab.Len(), len(m.rows))
	}
	for k, want := range m.rows {
		got := tab.Find(k.key, k.sub)
		if got != want {
			t.Fatalf("step %d: Find(%v) = %d, want row %d", step, k, got, want)
		}
		if m.valued && *tab.Val(got) != m.vals[want] {
			t.Fatalf("step %d: value of %v = %v, want %v", step, k, *tab.Val(got), m.vals[want])
		}
	}
	for i := 0; i < 8; i++ {
		k := keys()
		if _, ok := m.rows[k]; !ok && tab.Find(k.key, k.sub) != -1 {
			t.Fatalf("step %d: Find(%v) found a key never inserted", step, k)
		}
	}
}

// TestTableAgainstMap drives a Table and a Go map through the same random
// get / set / grow / reset / fork sequences. The resets are the point: a
// table is reused by query after query, so state leaking through Reset —
// a stale slot, a value that does not start at zero, a set that still
// carries values — is the bug this design invites.
func TestTableAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A small key universe forces hits and probe chains; the odd huge
		// and negative IDs exercise the hash's high bits.
		universe := 1 + rng.Intn(400)
		keys := func() modelKey {
			k := modelKey{int64(rng.Intn(universe)), int32(rng.Intn(4))}
			switch rng.Intn(10) {
			case 0:
				k.key = -k.key - 1
			case 1:
				k.key |= 1 << 62
			}
			return k
		}
		var tab Table
		m := newModel(false)
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 55: // insert, then write through the row
				k := keys()
				before := tab.Len()
				r := tab.Insert(k.key, k.sub)
				if want := m.insert(k); r != want {
					t.Fatalf("seed %d step %d: Insert(%v) = row %d, want %d", seed, step, k, r, want)
				}
				if m.valued {
					if r == before && *tab.Val(r) != 0 { // fresh rows start at zero
						t.Fatalf("seed %d step %d: fresh row %d = %v", seed, step, r, *tab.Val(r))
					}
					v := rng.Float64()
					*tab.Val(r) = v
					m.vals[r] = v
				}
			case op < 90: // lookup
				k := keys()
				want, ok := m.rows[k]
				if !ok {
					want = -1
				}
				if got := tab.Find(k.key, k.sub); got != want {
					t.Fatalf("seed %d step %d: Find(%v) = %d, want %d", seed, step, k, got, want)
				}
			case op < 94: // reset, to a set or a valued table
				valued := rng.Intn(2) == 0
				tab.Reset(valued)
				m = newModel(valued)
			case op < 97: // fork: the copy and the original then diverge
				var fork Table
				if rng.Intn(2) == 0 { // reuse dirty storage for the copy
					fork.Reset(!m.valued)
					for i := 0; i < 50; i++ {
						fork.Insert(int64(rng.Intn(1000)), 0)
					}
				}
				fork.CopyFrom(&tab)
				check(t, step, &fork, m, rng, keys)
				k := keys()
				fork.Insert(k.key, k.sub)
				if _, ok := m.rows[k]; !ok && tab.Find(k.key, k.sub) != -1 {
					t.Fatalf("seed %d step %d: insert into the fork reached the original", seed, step)
				}
			default:
				check(t, step, &tab, m, rng, keys)
			}
		}
		check(t, -1, &tab, m, rng, keys)
	}
}

// A reset table must not retain more than it had: Footprint is what the
// arena's size cap adds up.
func TestTableFootprintSurvivesReset(t *testing.T) {
	var tab Table
	if tab.Footprint() != 0 {
		t.Fatalf("zero table footprint = %d", tab.Footprint())
	}
	tab.Reset(true)
	for i := 0; i < 1000; i++ {
		tab.Insert(int64(i), 0)
	}
	full := tab.Footprint()
	if full < 1000*(4+16+8) {
		t.Fatalf("footprint %d below the storage 1000 rows need", full)
	}
	tab.Reset(false)
	if tab.Len() != 0 || tab.Footprint() != full {
		t.Fatalf("after Reset: Len %d footprint %d, want 0 and %d", tab.Len(), tab.Footprint(), full)
	}
	for i := 0; i < 1000; i++ {
		if tab.Find(int64(i), 0) != -1 {
			t.Fatalf("key %d survived Reset", i)
		}
	}
}
