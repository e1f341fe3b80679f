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

// A reference to an ID that had not arrived yet is dangling at ingest and
// stays dangling after the parent arrives; a restored window must not wire
// it either, or the parent's influence would differ across a restart.
func TestRestoreKeepsForwardReferencesDangling(t *testing.T) {
	const T = 100
	w := NewActiveWindow(T)
	steps := []struct {
		now   Time
		batch []*Element
	}{
		{10, []*Element{{ID: 1, TS: 5, Refs: []ElemID{2}}, {ID: 2, TS: 7}}}, // same bucket
		{20, []*Element{{ID: 3, TS: 15, Refs: []ElemID{4, 2}}}},
		{30, []*Element{{ID: 4, TS: 25}}}, // a later bucket
	}
	for _, s := range steps {
		if _, err := w.Advance(s.now, s.batch); err != nil {
			t.Fatal(err)
		}
	}
	if w.NumChildren(2) != 1 || w.NumChildren(4) != 0 {
		t.Fatalf("live window: %d children of e2, %d of e4; want 1, 0", w.NumChildren(2), w.NumChildren(4))
	}
	r, err := Restore(T, w.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotFacts(w), snapshotFacts(r)) {
		t.Fatalf("restored window wires forward references:\n got %v\nwant %v", snapshotFacts(r), snapshotFacts(w))
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	base := func() WindowState {
		e0 := &Element{ID: 7, TS: -200}
		e1 := &Element{ID: 1, TS: 100}
		e2 := &Element{ID: 2, TS: 150, Refs: []ElemID{1, 7}}
		st := WindowState{
			Now:    180,
			Window: []*Element{e1, e2},
			Active: []ActiveRef{{ID: 1, LastRef: 150}, {ID: 2, LastRef: 150}, {ID: 7, LastRef: 150}},
		}
		st.Archive.Append(e0)
		return st
	}
	// withIDs is st as a load hands it over: the archived elements' IDs
	// and latest timestamp read off the element log beside them.
	withIDs := func(st WindowState) WindowState {
		st.ArchivedIDs, st.ArchivedMaxTS = nil, 0
		for i := 0; i < st.Archive.Len(); i++ {
			rec, _, err := st.Archive.Record(i)
			if err != nil {
				t.Fatal(err)
			}
			st.ArchivedIDs = append(st.ArchivedIDs, recordID(rec))
			if ts := recordTS(rec); i == 0 || ts > st.ArchivedMaxTS {
				st.ArchivedMaxTS = ts
			}
		}
		return st
	}
	if _, err := Restore(300, base()); err != nil {
		t.Fatalf("baseline state rejected: %v", err)
	}
	if _, err := Restore(300, withIDs(base())); err != nil {
		t.Fatalf("baseline state with archived IDs rejected: %v", err)
	}
	// Each case is the arrival log of three corrupted one way; the log is
	// the archive (e0) followed by the window queue (e1, e2).
	cases := map[string]func(*WindowState){
		"nil element":       func(st *WindowState) { st.Window[0] = nil },
		"duplicate id":      func(st *WindowState) { st.Window[1].ID = 1 },
		"archived twice":    func(st *WindowState) { st.Window[1].ID = 7 },
		"window not active": func(st *WindowState) { st.Active = st.Active[1:] },
		// The archive claims a record past its bytes, or one that ends
		// before it starts.
		"bad window len":   func(st *WindowState) { st.Archive.Ends = append(st.Archive.Ends, 999) },
		"negative window":  func(st *WindowState) { st.Archive.Ends[0] = -1 },
		"record counts":    func(st *WindowState) { st.Archive.Records[20] = 1 },
		"stray bytes":      func(st *WindowState) { st.Archive.Records = append(st.Archive.Records, 0) },
		"text per record":  func(st *WindowState) { st.Archive.Texts = nil },
		"lastref below ts": func(st *WindowState) { st.Active[1].LastRef = 10 },
		"lastref expired":  func(st *WindowState) { st.Active[2].LastRef = -150 },
		"ts beyond now":    func(st *WindowState) { st.Window[1].TS = 999 },
		"active unknown":   func(st *WindowState) { st.Active[2].ID = 99 },
		"active twice":     func(st *WindowState) { st.Active = append(st.Active, st.Active[0]) },
		"topics vs probs":  func(st *WindowState) { st.Window[0].Topics.Topics = []int32{1} },
		// An in-window element archived: the queue starts one too late.
		"window outside": func(st *WindowState) {
			st.Archive.Append(st.Window[0])
			st.Window = st.Window[1:]
		},
		// An expired element in the queue: it starts one too early.
		"expired in queue": func(st *WindowState) {
			e0, err := st.Archive.Elements(0)
			if err != nil {
				t.Fatal(err)
			}
			st.Window = append(e0, st.Window...)
			st.Archive = Archive{}
		},
		"queue out of order": func(st *WindowState) { st.Window[0].TS, st.Active[0].LastRef = 170, 170 },
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
	// An in-window element archived, caught from the loaded IDs' latest
	// timestamp alone.
	st := base()
	cases["window outside"](&st)
	if _, err := Restore(300, withIDs(st)); err == nil {
		t.Error("window outside, archived IDs loaded: corrupt state accepted")
	}
	if _, err := Restore(0, base()); err == nil {
		t.Error("non-positive window length accepted")
	}
}

// Export must cost the active set, not the history: it shares the archive
// instead of walking it, and the shared prefix must stay intact while the
// window keeps ingesting.
func TestExportSharesLogPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewActiveWindow(120)
	next := randomAdvance(t, w, rng, 40, 1)
	st := w.Export()
	if n := st.Archive.Len() + len(st.Window); n != int(next-1) || st.Archive.Len() == 0 || len(st.Active) != w.NumActive() {
		t.Fatalf("export of %d elements: archive %d, window %d, active %d/%d",
			next-1, st.Archive.Len(), len(st.Window), len(st.Active), w.NumActive())
	}
	a := st.Archive
	if cap(a.Records) != len(a.Records) || cap(a.Ends) != len(a.Ends) || cap(a.Texts) != len(a.Texts) {
		t.Fatal("exported archive has spare capacity: an append through it could reach the window's archive")
	}
	if &a.Records[0] != &w.archive.Records[0] {
		t.Fatal("export copied the archive instead of sharing it")
	}
	records := string(a.Records)
	ends := append([]int(nil), a.Ends...)
	randomAdvance(t, w, rng, 40, next)
	if string(a.Records) != records || !reflect.DeepEqual(a.Ends, ends) {
		t.Fatal("exported archive changed under later advances")
	}
	if _, err := Restore(120, st); err != nil {
		t.Fatalf("earlier export no longer restores: %v", err)
	}
}
