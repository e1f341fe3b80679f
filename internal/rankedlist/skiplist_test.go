package rankedlist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/social-streams/ksir/internal/stream"
)

func TestUpsertAndOrder(t *testing.T) {
	l := New()
	l.Upsert(1, 0.5, 1)
	l.Upsert(2, 0.9, 2)
	l.Upsert(3, 0.1, 3)
	items := l.Items()
	want := []stream.ElemID{2, 1, 3}
	if len(items) != 3 {
		t.Fatalf("len = %d", len(items))
	}
	for i, id := range want {
		if items[i].ID != id {
			t.Errorf("items[%d] = e%d, want e%d", i, items[i].ID, id)
		}
	}
}

func TestUpsertReposition(t *testing.T) {
	l := New()
	l.Upsert(1, 0.5, 1)
	l.Upsert(2, 0.9, 1)
	// e1's score rises above e2's (a new reference arrived).
	l.Upsert(1, 1.5, 5)
	first, ok := l.First()
	if !ok || first.ID != 1 || first.Score != 1.5 {
		t.Errorf("First = %+v", first)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2 (reposition, not duplicate)", l.Len())
	}
}

// An upsert of the score a tuple already has — a reference that moved
// only t_e, which the list does not hold — is a no-op: the node stays,
// and a later version neither replaces nor marks it.
func TestUpsertSameScoreIsNoOp(t *testing.T) {
	l := New()
	l.Upsert(1, 0.5, 1)
	n := l.node(0, 0)
	l.Freeze()
	l.Upsert(1, 0.5, 9)
	if item, _ := l.Get(1); item != (Item{ID: 1, Score: 0.5}) {
		t.Errorf("Get(1) = %+v, want {1 0.5}", item)
	}
	if l.node(0, 0) != n || len(l.tab.dead) != 0 {
		t.Errorf("the upsert replaced the node (%d dead)", len(l.tab.dead))
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestTieBreakByID(t *testing.T) {
	l := New()
	l.Upsert(5, 0.5, 1)
	l.Upsert(3, 0.5, 1)
	l.Upsert(4, 0.5, 1)
	items := l.Items()
	for i, want := range []stream.ElemID{3, 4, 5} {
		if items[i].ID != want {
			t.Errorf("tie order: items[%d] = e%d, want e%d", i, items[i].ID, want)
		}
	}
}

func TestDelete(t *testing.T) {
	l := New()
	l.Upsert(1, 0.5, 1)
	l.Upsert(2, 0.9, 1)
	if !l.Delete(1) {
		t.Error("Delete(1) = false")
	}
	if l.Delete(1) {
		t.Error("double Delete(1) = true")
	}
	if l.Delete(99) {
		t.Error("Delete(missing) = true")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
	if _, ok := l.Get(1); ok {
		t.Error("deleted item still present")
	}
}

func TestEmptyList(t *testing.T) {
	l := New()
	if _, ok := l.First(); ok {
		t.Error("First on empty = ok")
	}
	if _, ok := l.Iter().Next(); ok {
		t.Error("Next on empty = ok")
	}
	if l.Len() != 0 {
		t.Error("Len != 0")
	}
}

func TestIterator(t *testing.T) {
	l := New()
	for i := 1; i <= 10; i++ {
		l.Upsert(stream.ElemID(i), float64(i), 1)
	}
	it := l.Iter()
	var got []stream.ElemID
	for {
		item, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, item.ID)
	}
	if len(got) != 10 {
		t.Fatalf("iterated %d items", len(got))
	}
	for i := range got {
		if got[i] != stream.ElemID(10-i) {
			t.Errorf("got[%d] = e%d, want e%d", i, got[i], 10-i)
		}
	}
}

// Property: after a random sequence of upserts and deletes the list contents
// and order match a reference implementation (sorted slice).
func TestSkipListMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := New()
	ref := make(map[stream.ElemID]float64)
	for op := 0; op < 5000; op++ {
		id := stream.ElemID(rng.Intn(300))
		switch rng.Intn(3) {
		case 0, 1:
			score := float64(rng.Intn(100)) / 10 // coarse scores force ties
			l.Upsert(id, score, stream.Time(op))
			ref[id] = score
		case 2:
			got := l.Delete(id)
			_, want := ref[id]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, id, got, want)
			}
			delete(ref, id)
		}
	}
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
	}
	items := l.Items()
	type pair struct {
		id    stream.ElemID
		score float64
	}
	want := make([]pair, 0, len(ref))
	for id, s := range ref {
		want = append(want, pair{id, s})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].score != want[j].score {
			return want[i].score > want[j].score
		}
		return want[i].id < want[j].id
	})
	for i := range want {
		if items[i].ID != want[i].id || items[i].Score != want[i].score {
			t.Fatalf("position %d: got (%d,%v), want (%d,%v)",
				i, items[i].ID, items[i].Score, want[i].id, want[i].score)
		}
	}
}

// Property via testing/quick: items come out in non-increasing score order.
func TestOrderInvariantProperty(t *testing.T) {
	f := func(scores []float64) bool {
		l := New()
		for i, s := range scores {
			l.Upsert(stream.ElemID(i), s, 0)
		}
		items := l.Items()
		for i := 1; i < len(items); i++ {
			if items[i].Score > items[i-1].Score {
				return false
			}
		}
		return len(items) == len(scores)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodeLevelBounds(t *testing.T) {
	for id := stream.ElemID(0); id < 10000; id++ {
		lvl := nodeLevel(id)
		if lvl < 1 || lvl > maxLevel {
			t.Fatalf("nodeLevel(%d) = %d", id, lvl)
		}
	}
}
