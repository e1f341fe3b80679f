package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// randomAdvance drives a window through n buckets of synthetic elements
// with reference chains and returns the element counter.
func randomAdvance(t *testing.T, w *ActiveWindow, rng *rand.Rand, n int, nextID ElemID) ElemID {
	t.Helper()
	for b := 0; b < n; b++ {
		now := w.Now() + 60
		var batch []*Element
		for i := 0; i < 1+rng.Intn(5); i++ {
			e := &Element{
				ID:     nextID,
				TS:     w.Now() + 1 + Time(rng.Intn(60)),
				Doc:    textproc.NewDocument([]textproc.WordID{textproc.WordID(rng.Intn(5))}),
				Topics: topicmodel.TopicVec{Topics: []int32{int32(rng.Intn(3))}, Probs: []float64{1}},
			}
			if nextID > 1 && rng.Intn(2) == 0 {
				e.Refs = append(e.Refs, ElemID(1+rng.Int63n(int64(nextID-1))))
			}
			nextID++
			batch = append(batch, e)
		}
		sortByTS(batch)
		if _, err := w.Advance(now, batch); err != nil {
			t.Fatal(err)
		}
	}
	return nextID
}

func sortByTS(batch []*Element) {
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j].TS < batch[j-1].TS; j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
}

// snapshotFacts captures everything externally observable about a window.
func snapshotFacts(w *ActiveWindow) map[string]any {
	facts := map[string]any{
		"now":    w.Now(),
		"active": w.ActiveIDs(),
	}
	for _, id := range w.ActiveIDs() {
		lr, _ := w.LastRef(id)
		facts[fmt.Sprintf("lastRef.%d", id)] = lr
		ids := []ElemID{}
		w.ForEachChild(id, func(c *Element) { ids = append(ids, c.ID) })
		sortIDs(ids)
		facts[fmt.Sprintf("children.%d", id)] = ids
	}
	return facts
}

func sortIDs(ids []ElemID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// A restored window must match the original exactly — and keep matching
// after both take the same further advances (exits, expiries and
// resurrections replay identically).
func TestWindowExportRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const T = 300
	w := NewActiveWindow(T)
	nextID := randomAdvance(t, w, rng, 30, 1)

	st := w.Export()
	r, err := Restore(T, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotFacts(w), snapshotFacts(r)) {
		t.Fatal("restored window diverges immediately")
	}
	if r.NumActive() != w.NumActive() {
		t.Fatalf("NumActive %d vs %d", r.NumActive(), w.NumActive())
	}
	for id := ElemID(1); id < nextID; id++ {
		if w.Known(id) != r.Known(id) {
			t.Fatalf("Known(%d) diverges", id)
		}
	}

	// Drive both through the same future: identical batches, including
	// references that resurrect long-expired elements.
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	idA := randomAdvance(t, w, rngA, 20, nextID)
	idB := randomAdvance(t, r, rngB, 20, nextID)
	if idA != idB {
		t.Fatal("test generators diverged")
	}
	if !reflect.DeepEqual(snapshotFacts(w), snapshotFacts(r)) {
		t.Fatal("windows diverge after identical advances")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	base := func() WindowState {
		e0 := &Element{ID: 7, TS: -200}
		e1 := &Element{ID: 1, TS: 100}
		e2 := &Element{ID: 2, TS: 150, Refs: []ElemID{1, 7}}
		return WindowState{
			Now:      180,
			Log:      []*Element{e0, e1, e2},
			InWindow: 2,
			Active:   []ActiveRef{{ID: 1, LastRef: 150}, {ID: 2, LastRef: 150}, {ID: 7, LastRef: 150}},
		}
	}
	if _, err := Restore(300, base()); err != nil {
		t.Fatalf("baseline state rejected: %v", err)
	}
	cases := map[string]func(*WindowState){
		"nil element":        func(st *WindowState) { st.Log[0] = nil },
		"duplicate id":       func(st *WindowState) { st.Log[2].ID = 1 },
		"window not active":  func(st *WindowState) { st.Active = st.Active[1:] },
		"bad window len":     func(st *WindowState) { st.InWindow = 4 },
		"negative window":    func(st *WindowState) { st.InWindow = -1 },
		"lastref below ts":   func(st *WindowState) { st.Active[1].LastRef = 10 },
		"lastref expired":    func(st *WindowState) { st.Active[2].LastRef = -150 },
		"ts beyond now":      func(st *WindowState) { st.Log[2].TS = 999 },
		"active unknown":     func(st *WindowState) { st.Active[2].ID = 99 },
		"active twice":       func(st *WindowState) { st.Active = append(st.Active, st.Active[0]) },
		"window outside":     func(st *WindowState) { st.InWindow = 1 },
		"expired in queue":   func(st *WindowState) { st.InWindow = 3 },
		"queue out of order": func(st *WindowState) { st.Log[1].TS, st.Active[0].LastRef = 170, 170 },
		"referenced inactive": func(st *WindowState) {
			st.Active = st.Active[:2]
		},
	}
	for name, mutate := range cases {
		st := base()
		mutate(&st)
		if _, err := Restore(300, st); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
	if _, err := Restore(0, base()); err == nil {
		t.Error("non-positive window length accepted")
	}
}

// Export must cost the active set, not the history: it shares the arrival
// log instead of walking it, and the shared prefix must stay intact while
// the window keeps ingesting.
func TestExportSharesLogPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewActiveWindow(120)
	next := randomAdvance(t, w, rng, 40, 1)
	st := w.Export()
	if len(st.Log) != int(next-1) || st.InWindow >= len(st.Log) || len(st.Active) != w.NumActive() {
		t.Fatalf("export of %d elements: log %d, window %d, active %d/%d",
			next-1, len(st.Log), st.InWindow, len(st.Active), w.NumActive())
	}
	if cap(st.Log) != len(st.Log) {
		t.Fatalf("exported log has spare capacity %d: an append through it could reach the window's log", cap(st.Log)-len(st.Log))
	}
	ids := make([]ElemID, len(st.Log))
	for i, e := range st.Log {
		ids[i] = e.ID
	}
	randomAdvance(t, w, rng, 40, next)
	for i, e := range st.Log {
		if e.ID != ids[i] {
			t.Fatalf("exported log entry %d changed under later advances", i)
		}
	}
	if _, err := Restore(120, st); err != nil {
		t.Fatalf("earlier export no longer restores: %v", err)
	}
}
