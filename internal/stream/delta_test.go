package stream

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomBuckets generates a bucket sequence exercising every structural
// path: fresh arrivals, references to live / expired / dangling IDs
// (resurrections), duplicate refs within one element, and occasional time
// jumps larger than the window (mass expiry plus arrive-already-expired).
func randomBuckets(rng *rand.Rand, buckets int) [][2]interface{} {
	var out [][2]interface{}
	now := Time(0)
	nextID := ElemID(1)
	for b := 0; b < buckets; b++ {
		var step Time
		switch rng.Intn(8) {
		case 0:
			step = Time(rng.Intn(40) + 25) // jump past the window (T=20 in the test)
		default:
			step = Time(rng.Intn(6) + 1)
		}
		prev := now
		now += step
		n := rng.Intn(6)
		batch := make([]*Element, 0, n)
		for i := 0; i < n; i++ {
			ts := prev + 1 + Time(rng.Int63n(int64(now-prev)))
			e := &Element{ID: nextID, TS: ts}
			nextID++
			for r := 0; r < rng.Intn(3); r++ {
				// Any historical ID, plus the occasional dangling one.
				e.Refs = append(e.Refs, ElemID(rng.Int63n(int64(nextID)+3)))
			}
			batch = append(batch, e)
		}
		// Batches must be timestamp-ordered like Partition produces.
		for i := 1; i < len(batch); i++ {
			for j := i; j > 0 && batch[j].TS < batch[j-1].TS; j-- {
				batch[j], batch[j-1] = batch[j-1], batch[j]
			}
		}
		out = append(out, [2]interface{}{now, batch})
	}
	return out
}

// A replica window sharing the primary's writer state (as the engine's twin
// buffers do) and fed only recorded deltas stays byte-identical — at the
// Export level and in its derived reference index — to the primary across
// randomized advance sequences, and keeps behaving identically when the
// roles swap (the engine's buffers alternate between the two paths).
func TestApplyDeltaMirrorsAdvance(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const T = 20
		primary, replica := NewActiveWindow(T), NewActiveWindow(T)
		ShareWriterState(primary, replica)

		for b, step := range randomBuckets(rng, 40) {
			now, batch := step[0].(Time), step[1].([]*Element)
			_, delta, err := primary.AdvanceRecorded(now, batch)
			if err != nil {
				t.Fatalf("seed %d bucket %d: %v", seed, b, err)
			}
			replica.ApplyDelta(delta)

			if got, want := replica.Export(), primary.Export(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d bucket %d: exports diverge\n got %+v\nwant %+v", seed, b, got, want)
			}
			for id := range primary.active {
				if !reflect.DeepEqual(replica.Children(id), primary.Children(id)) {
					t.Fatalf("seed %d bucket %d: children of %d diverge", seed, b, id)
				}
			}
			// Swap roles every few buckets: the replayed window must be a
			// fully functional primary (active set, queue and index all live).
			if b%5 == 4 {
				primary, replica = replica, primary
			}
		}
	}
}

// ForEachChild iterates in ascending child-ID order, making influence
// accumulation deterministic.
func TestForEachChildOrderDeterministic(t *testing.T) {
	w := NewActiveWindow(100)
	parent := &Element{ID: 1, TS: 1}
	if _, err := w.Advance(1, []*Element{parent}); err != nil {
		t.Fatal(err)
	}
	// Children arrive in non-sorted ID order within later buckets.
	kids := []*Element{
		{ID: 9, TS: 2, Refs: []ElemID{1}},
		{ID: 4, TS: 3, Refs: []ElemID{1, 1}}, // duplicate ref: wired once
		{ID: 7, TS: 4, Refs: []ElemID{1}},
	}
	if _, err := w.Advance(4, kids); err != nil {
		t.Fatal(err)
	}
	var got []ElemID
	w.ForEachChild(1, func(c *Element) { got = append(got, c.ID) })
	want := []ElemID{4, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("child order %v, want %v", got, want)
	}
	if w.NumChildren(1) != 3 {
		t.Fatalf("NumChildren = %d, want 3", w.NumChildren(1))
	}
}
