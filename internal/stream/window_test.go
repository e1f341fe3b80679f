package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
)

// paperElements reproduces the stream of Table 1(a): 8 elements, one per
// time unit, with references e4→e3, e5→e1, e6→e3, e7→e2, e8→{e2,e3,e6}.
func paperElements() []*Element {
	refs := map[ElemID][]ElemID{
		4: {3}, 5: {1}, 6: {3}, 7: {2}, 8: {2, 3, 6},
	}
	elems := make([]*Element, 8)
	for i := 0; i < 8; i++ {
		id := ElemID(i + 1)
		elems[i] = &Element{
			ID:   id,
			TS:   Time(i + 1),
			Doc:  textproc.NewDocument([]textproc.WordID{textproc.WordID(i)}),
			Refs: refs[id],
		}
	}
	return elems
}

func advanceAll(t *testing.T, w *ActiveWindow, elems []*Element) {
	t.Helper()
	for _, e := range elems {
		if _, err := w.Advance(e.TS, []*Element{e}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPaperExampleActiveSet(t *testing.T) {
	// §3.4: with T=4 at t=8, "the set of active elements contains all except
	// e4" — e4 expired (left window at t=8, never referenced).
	w := NewActiveWindow(4)
	advanceAll(t, w, paperElements())
	if w.Now() != 8 {
		t.Fatalf("Now = %d", w.Now())
	}
	if n := w.NumActive(); n != 7 {
		t.Fatalf("NumActive = %d, want 7: %v", n, w.ActiveIDs())
	}
	if _, ok := w.Get(4); ok {
		t.Error("e4 should have expired")
	}
	for _, id := range []ElemID{1, 2, 3, 5, 6, 7, 8} {
		if _, ok := w.Get(id); !ok {
			t.Errorf("e%d should be active", id)
		}
	}
}

func TestPaperExampleChildren(t *testing.T) {
	// Example 3.2: at t=8 with T=4, W_8 = {e5..e8}; I_8(e3) = {e6, e8}
	// (e4 expired), I_8(e2) = {e7, e8}, I_8(e1) = {e5}.
	w := NewActiveWindow(4)
	advanceAll(t, w, paperElements())
	wantChildren := map[ElemID][]ElemID{
		1: {5},
		2: {7, 8},
		3: {6, 8},
		6: {8},
	}
	for pid, want := range wantChildren {
		got := w.Children(pid)
		if len(got) != len(want) {
			t.Errorf("I_8(e%d) has %d children, want %v", pid, len(got), want)
			continue
		}
		seen := make(map[ElemID]bool)
		for _, c := range got {
			seen[c.ID] = true
		}
		for _, id := range want {
			if !seen[id] {
				t.Errorf("I_8(e%d) missing e%d", pid, id)
			}
		}
	}
	if n := w.NumChildren(4); n != 0 {
		t.Errorf("I_8(e4) = %d, want 0", n)
	}
}

func TestInWindowVsActiveOnly(t *testing.T) {
	w := NewActiveWindow(4)
	advanceAll(t, w, paperElements())
	// e1..e3 are active only via references; e5..e8 are in the window.
	for _, id := range []ElemID{1, 2, 3} {
		e, _ := w.Get(id)
		if w.InWindow(e) {
			t.Errorf("e%d should be outside W_t", id)
		}
	}
	for _, id := range []ElemID{5, 6, 7, 8} {
		e, _ := w.Get(id)
		if !w.InWindow(e) {
			t.Errorf("e%d should be inside W_t", id)
		}
	}
}

func TestExpiryCascade(t *testing.T) {
	// After the window slides past all referrers, parents expire too.
	w := NewActiveWindow(4)
	advanceAll(t, w, paperElements())
	// Advance to t=12 with no arrivals: window empties, everything expires.
	cs, err := w.Advance(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumActive() != 0 {
		t.Fatalf("active after drain = %v", w.ActiveIDs())
	}
	if len(cs.Expired) != 7 {
		t.Errorf("expired %d elements, want 7", len(cs.Expired))
	}
}

func TestLastReferenceKeepsParentAlive(t *testing.T) {
	w := NewActiveWindow(2)
	e1 := &Element{ID: 1, TS: 1}
	e2 := &Element{ID: 2, TS: 3, Refs: []ElemID{1}}
	e3 := &Element{ID: 3, TS: 4, Refs: []ElemID{1}}
	if _, err := w.Advance(1, []*Element{e1}); err != nil {
		t.Fatal(err)
	}
	// t=3: e1 left the window (T=2, cutoff 1) but e2 refers to it.
	if _, err := w.Advance(3, []*Element{e2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Get(1); !ok {
		t.Fatal("e1 must stay active while referenced")
	}
	if _, err := w.Advance(4, []*Element{e3}); err != nil {
		t.Fatal(err)
	}
	// t=6: e2 and e3 leave the window; e1 loses all children and expires.
	cs, err := w.Advance(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumActive() != 0 {
		t.Fatalf("want empty, got %v", w.ActiveIDs())
	}
	if len(cs.Expired) != 3 {
		t.Errorf("expired = %d, want 3", len(cs.Expired))
	}
}

func TestResurrection(t *testing.T) {
	w := NewActiveWindow(2)
	e1 := &Element{ID: 1, TS: 1}
	if _, err := w.Advance(1, []*Element{e1}); err != nil {
		t.Fatal(err)
	}
	// e1 expires.
	if _, err := w.Advance(5, nil); err != nil {
		t.Fatal(err)
	}
	if w.NumActive() != 0 {
		t.Fatal("e1 should be expired")
	}
	// A new element referencing e1 resurrects it.
	e2 := &Element{ID: 2, TS: 6, Refs: []ElemID{1}}
	cs, err := w.Advance(6, []*Element{e2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Get(1); !ok {
		t.Fatal("e1 should be resurrected")
	}
	// Both e2 (arrival) and e1 (resurrection) count as inserted.
	if len(cs.Inserted) != 2 {
		t.Errorf("Inserted = %v", cs.Inserted)
	}
	if len(cs.Updated) != 0 {
		t.Errorf("resurrected parent must not also appear in Updated: %v", cs.Updated)
	}
}

func TestUpdatedParents(t *testing.T) {
	w := NewActiveWindow(10)
	e1 := &Element{ID: 1, TS: 1}
	e2 := &Element{ID: 2, TS: 2}
	if _, err := w.Advance(2, []*Element{e1, e2}); err != nil {
		t.Fatal(err)
	}
	e3 := &Element{ID: 3, TS: 3, Refs: []ElemID{1, 2}}
	e4 := &Element{ID: 4, TS: 3, Refs: []ElemID{1}}
	cs, err := w.Advance(3, []*Element{e3, e4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Updated) != 2 || cs.Updated[0].ID != 1 || cs.Updated[1].ID != 2 {
		t.Errorf("Updated = %v, want [e1 e2]", cs.Updated)
	}
}

func TestDanglingReferenceIgnored(t *testing.T) {
	w := NewActiveWindow(10)
	e := &Element{ID: 1, TS: 1, Refs: []ElemID{999}}
	cs, err := w.Advance(1, []*Element{e})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Inserted) != 1 || len(cs.Updated) != 0 {
		t.Errorf("dangling ref should be ignored: %+v", cs)
	}
	if w.NumChildren(999) != 0 {
		t.Error("dangling parent has children")
	}
}

func TestAdvanceErrors(t *testing.T) {
	w := NewActiveWindow(10)
	if _, err := w.Advance(5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Advance(3, nil); err == nil {
		t.Error("time moving backwards accepted")
	}
	if _, err := w.Advance(6, []*Element{{ID: 1, TS: 99}}); err == nil {
		t.Error("future element accepted")
	}
	if _, err := w.Advance(7, []*Element{{ID: 2, TS: 7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Advance(8, []*Element{{ID: 2, TS: 8}}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestNewActiveWindowPanicsOnBadT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("T=0 should panic")
		}
	}()
	NewActiveWindow(0)
}

// Invariant check under random streams: active set equals the brute-force
// definition A_t = W_t ∪ referenced-by-W_t, and children indexes match.
func TestActiveWindowRandomInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const T = 20
	w := NewActiveWindow(T)
	var all []*Element
	now := Time(0)
	for step := 0; step < 200; step++ {
		now += Time(1 + rng.Intn(3))
		var batch []*Element
		for j := 0; j < rng.Intn(4); j++ {
			e := &Element{ID: ElemID(len(all) + 1), TS: now}
			// Reference up to 2 random earlier elements.
			for r := 0; r < rng.Intn(3) && len(all) > 0; r++ {
				e.Refs = append(e.Refs, all[rng.Intn(len(all))].ID)
			}
			all = append(all, e)
			batch = append(batch, e)
		}
		if _, err := w.Advance(now, batch); err != nil {
			t.Fatal(err)
		}
		verifyInvariant(t, w, all, now, T)
	}
}

func verifyInvariant(t *testing.T, w *ActiveWindow, all []*Element, now, T Time) {
	t.Helper()
	inWindow := make(map[ElemID]*Element)
	for _, e := range all {
		if e.TS > now-T && e.TS <= now {
			inWindow[e.ID] = e
		}
	}
	wantActive := make(map[ElemID]struct{})
	wantChildren := make(map[ElemID]map[ElemID]struct{})
	for id := range inWindow {
		wantActive[id] = struct{}{}
	}
	for _, c := range inWindow {
		for _, pid := range c.Refs {
			wantActive[pid] = struct{}{}
			if wantChildren[pid] == nil {
				wantChildren[pid] = make(map[ElemID]struct{})
			}
			wantChildren[pid][c.ID] = struct{}{}
		}
	}
	if len(wantActive) != w.NumActive() {
		t.Fatalf("t=%d: NumActive = %d, want %d", now, w.NumActive(), len(wantActive))
	}
	for id := range wantActive {
		if _, ok := w.Get(id); !ok {
			t.Fatalf("t=%d: e%d should be active", now, id)
		}
		if got, want := w.NumChildren(id), len(wantChildren[id]); got != want {
			t.Fatalf("t=%d: children(e%d) = %d, want %d", now, id, got, want)
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
	children := []*Element{
		{ID: 9, TS: 2, Refs: []ElemID{1}},
		{ID: 4, TS: 3, Refs: []ElemID{1, 1}}, // duplicate ref: wired once
		{ID: 7, TS: 4, Refs: []ElemID{1}},
	}
	if _, err := w.Advance(4, children); err != nil {
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
