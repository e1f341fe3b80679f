package rankedlist

import (
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
)

func itemIDs(items []Item) []stream.ElemID {
	ids := make([]stream.ElemID, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}

func equalItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotMatchesListAtFreeze(t *testing.T) {
	l := New()
	for i := 1; i <= 20; i++ {
		l.Upsert(stream.ElemID(i), float64(i%7), stream.Time(i))
	}
	want := l.Items()
	s := l.Freeze()
	if s.Len() != l.Len() {
		t.Fatalf("snapshot Len = %d, list Len = %d", s.Len(), l.Len())
	}
	if !equalItems(s.Items(), want) {
		t.Errorf("snapshot Items diverge: %v vs %v", itemIDs(s.Items()), itemIDs(want))
	}
	sf, ok1 := s.First()
	lf, ok2 := l.First()
	if ok1 != ok2 || sf != lf {
		t.Errorf("First mismatch: %v/%v vs %v/%v", sf, ok1, lf, ok2)
	}
	for i := 1; i <= 20; i++ {
		si, ok1 := s.Get(stream.ElemID(i))
		li, ok2 := l.Get(stream.ElemID(i))
		if ok1 != ok2 || si != li {
			t.Errorf("Get(%d) mismatch: %v/%v vs %v/%v", i, si, ok1, li, ok2)
		}
	}
}

// Every mutator of a list goes on after Freeze, and none changes what the
// snapshot reads: writes go to the next version. A touch (the same score
// again) writes nothing at all.
func TestMutationAfterFreezeLeavesSnapshot(t *testing.T) {
	l := New()
	for i := 1; i <= 10; i++ {
		l.Upsert(stream.ElemID(i), float64(i), 1)
	}
	s := l.Freeze()
	want := s.Items()
	for _, c := range []struct {
		name    string
		f       func()
		changes bool
	}{
		{"Upsert", func() { l.Upsert(99, 5.5, 2) }, true},
		{"Upsert(touch)", func() { l.Upsert(7, 7, 9) }, false},
		{"Delete", func() { l.Delete(10) }, true},
		{"UpsertAt", func() { l.UpsertAt(2, 0, 3, 20) }, true},
		{"DeleteAt", func() { l.DeleteAt(8, 0) }, true},
	} {
		before := l.Items()
		c.f()
		if !equalItems(s.Items(), want) || s.Len() != len(want) {
			t.Fatalf("%s after Freeze changed the snapshot", c.name)
		}
		if changed := !equalItems(l.Items(), before); changed != c.changes {
			t.Fatalf("%s after Freeze changed the list: %v, want %v", c.name, changed, c.changes)
		}
	}
	// The touch left element 7's node alone: one node, in both versions.
	if len(l.tab.dead) != 3 {
		t.Errorf("%d nodes dead, want 3 (the deletes and the rescore)", len(l.tab.dead))
	}
	if item, ok := s.Get(7); !ok || item != (Item{7, 7}) {
		t.Errorf("snapshot Get(7) = %+v, %v; want {7 7}", item, ok)
	}
	if item, ok := l.Get(7); !ok || item != (Item{7, 7}) {
		t.Errorf("list Get(7) = %+v, %v; want {7 7}", item, ok)
	}
}

// Freeze → thaw cycles: each snapshot shows exactly the tuples of its
// freeze point — upserts, repositions, same-score touches (no-ops) and
// deletes made while thawed included.
func TestSnapshotIsImmutableUnderMutation(t *testing.T) {
	l := New()
	for i := 1; i <= 10; i++ {
		l.Upsert(stream.ElemID(i), float64(i), 1)
	}
	s := l.Freeze()
	if first, _ := s.First(); first.ID != 10 || s.Len() != 10 {
		t.Fatalf("first snapshot: First = e%d, Len = %d; want e10, 10", first.ID, s.Len())
	}
	l.Thaw()

	l.Upsert(99, 5.5, 2) // fresh insert
	l.Upsert(3, 20, 3)   // reposition to the top
	l.Upsert(7, 7, 9)    // same score: a touch, a no-op
	l.Delete(10)         // delete the old maximum
	want := l.Items()
	s = l.Freeze()

	if !equalItems(s.Items(), want) {
		t.Fatalf("snapshot diverges from its freeze point:\n got %+v\nwant %+v", s.Items(), want)
	}
	if s.Len() != 10 { // 10 − delete + insert
		t.Errorf("snapshot Len = %d, want 10", s.Len())
	}
	if item, ok := s.Get(7); !ok || item != (Item{7, 7}) {
		t.Errorf("snapshot Get(7) = %+v, %v; want {7 7}", item, ok)
	}
	if _, ok := s.Get(10); ok {
		t.Error("snapshot sees element deleted before Freeze")
	}
	if first, _ := s.First(); first.ID != 3 {
		t.Errorf("snapshot First = e%d, want e3 after reposition", first.ID)
	}
}

// Thaw unlinks only what the snapshots before the last Freeze could see:
// the list keeps behaving exactly like an unfrozen one, and the last
// snapshot still reads its version.
func TestThawReusesNodes(t *testing.T) {
	l := New()
	l.Upsert(1, 1, 1)
	l.Upsert(2, 2, 1)
	l.Freeze()
	l.Delete(1)
	s := l.Freeze()
	l.Thaw()
	l.Upsert(3, 3, 1)
	l.Upsert(2, 2.5, 2)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := s.Items(); !equalItems(got, []Item{{2, 2}}) {
		t.Fatalf("snapshot reads %v after Thaw, want its version", got)
	}
	if got := l.Items(); !equalItems(got, []Item{{3, 3}, {2, 2.5}}) {
		t.Fatalf("list reads %v", got)
	}
}

// Property: under a random mix of upserts/deletes with freeze → thaw
// cycles sprinkled in, every snapshot equals the state captured at its
// freeze point for as long as it stays frozen — mutations wait, reads go
// on — and the live list stays correct.
func TestSnapshotPropertyUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := New()
	var snap *Snapshot
	var want []Item
	cycles := 0
	for op := 0; op < 4000; op++ {
		id := stream.ElemID(rng.Intn(200))
		if snap != nil {
			// Frozen: check a lookup against the freeze point, and thaw
			// after a while.
			got, ok := snap.Get(id)
			live, liveOK := l.Get(id)
			if ok != liveOK || got != live {
				t.Fatalf("op %d: snapshot Get(%d) = %v/%v, frozen list %v/%v", op, id, got, ok, live, liveOK)
			}
			if rng.Intn(8) == 0 {
				if !equalItems(snap.Items(), want) || snap.Len() != len(want) {
					t.Fatalf("op %d: snapshot diverged from its freeze-point state", op)
				}
				l.Thaw()
				snap = nil
			}
			continue
		}
		switch rng.Intn(5) {
		case 0, 1, 2:
			l.Upsert(id, float64(rng.Intn(50))/5, stream.Time(op))
		case 3:
			l.Delete(id)
		case 4:
			if op%37 == 0 {
				want, snap = l.Items(), l.Freeze()
				cycles++
			}
		}
	}
	if cycles < 5 {
		t.Fatalf("only %d freeze → thaw cycles", cycles)
	}
	// The live list still matches a from-scratch rebuild.
	rebuilt := New()
	for _, it := range l.Items() {
		rebuilt.Upsert(it.ID, it.Score, 0)
	}
	if !equalItems(l.Items(), rebuilt.Items()) {
		t.Error("live list inconsistent after churn")
	}
}

// The snapshot iterator must expose the exact sequence the live iterator
// exposed at freeze time (the traversal depends on this API shape).
func TestSnapshotIterator(t *testing.T) {
	l := New()
	for i := 1; i <= 15; i++ {
		l.Upsert(stream.ElemID(i), float64((i*7)%11), stream.Time(i))
	}
	want := l.Items()
	for cycle := 0; cycle < 2; cycle++ {
		it := l.Freeze().Iter()
		var got []Item
		for {
			item, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, item)
		}
		if !equalItems(got, want) {
			t.Fatalf("cycle %d: iterator order %v, want %v", cycle, itemIDs(got), itemIDs(want))
		}
		// Thaw and add a new maximum: the next snapshot leads with it.
		l.Thaw()
		l.Upsert(100, 99, 1)
		want = append([]Item{{ID: 100, Score: 99}}, want...)
	}
}
