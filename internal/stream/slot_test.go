package stream

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// One window through random buckets with resurrections, IDs out of order,
// flushes and a restore, read the way the engine's readers read it: after
// every advance the active elements and their slots are one to one, a View
// of the version before the advance still reads that version — every
// element by its slot and its children in order — and no slot an element
// held at that version is handed out by the advance (a slot given back is
// released and reused only from the next advance on). A slot refilled by
// an element without children reads none, whatever its last holder had.
func TestSlotsFollowTheActiveSet(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const T = 20
		w := NewActiveWindow(T)
		freed := map[Slot]bool{}
		reused, resurrected, childless := 0, 0, 0
		ids := rng.Perm(400)
		now := Time(0)
		for b := 0; b < 80; b++ {
			prev := now
			now += Time(1 + rng.Intn(6))
			if rng.Intn(10) == 0 {
				now += T // everything not referenced expires
			}
			var batch []*Element
			for i := rng.Intn(6); i > 0; i-- { // sometimes none: a flush
				e := &Element{ID: ElemID(1 + ids[0]), TS: prev + 1 + Time(rng.Int63n(int64(now-prev)))}
				ids = ids[1:]
				for r := rng.Intn(3); r > 0; r-- {
					e.Refs = append(e.Refs, ElemID(1+rng.Intn(400))) // live, expired, unknown or not yet arrived
				}
				batch = append(batch, e)
			}
			sortByTS(batch)
			before, held := w.View(), viewFacts(w)
			cs, err := w.Advance(now, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got := readView(before, held); !reflect.DeepEqual(got, held) {
				t.Fatalf("seed %d bucket %d: the view of the version before the advance changed", seed, b)
			}
			resurrected += len(cs.Inserted) - len(batch)
			for _, s := range cs.InsertedSlots {
				if _, ok := held[s]; ok {
					t.Fatalf("seed %d bucket %d: slot %d handed out while the previous version holds element %d in it", seed, b, s, held[s].id)
				}
				if freed[s] {
					reused++
					if w.At(s) != nil && len(w.ChildrenAt(s)) == 0 {
						childless++
					}
				}
			}
			for _, s := range cs.ExpiredSlots {
				freed[s] = true
			}
			checkWindowSlots(t, w)
			if now := viewFacts(w); !reflect.DeepEqual(readView(w.View(), now), now) {
				t.Fatalf("seed %d bucket %d: the view of the new version does not read the window", seed, b)
			}

			if b == 40 {
				// A restore hands the slots out afresh, in the export's
				// active order, and the window carries on from it.
				r, err := Restore(T, w.Export())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(snapshotFacts(r), snapshotFacts(w)) {
					t.Fatalf("seed %d: restored window diverges", seed)
				}
				w = r
				checkWindowSlots(t, w)
			}
		}
		if reused == 0 || resurrected == 0 || childless == 0 {
			t.Fatalf("seed %d: %d slots reused (%d without children) and %d elements resurrected; the script must do all", seed, reused, childless, resurrected)
		}
	}
}

// slotFacts is what a reader finds in one slot: the element and the IDs of
// its children, in order.
type slotFacts struct {
	id       ElemID
	e        *Element
	children []ElemID
}

// viewFacts reads every active element of w through its ID map.
func viewFacts(w *ActiveWindow) map[Slot]slotFacts {
	out := map[Slot]slotFacts{}
	for _, id := range w.ActiveIDs() {
		s, _ := w.SlotOf(id)
		e, _ := w.Get(id)
		f := slotFacts{id: id, e: e, children: []ElemID{}}
		for _, c := range w.ChildrenView(id) {
			f.children = append(f.children, c.ID)
		}
		out[s] = f
	}
	return out
}

// readView reads the slots of want through v alone.
func readView(v View, want map[Slot]slotFacts) map[Slot]slotFacts {
	out := map[Slot]slotFacts{}
	for s := range want {
		e := v.At(s)
		f := slotFacts{e: e, children: []ElemID{}}
		if e != nil {
			f.id = e.ID
		}
		for _, c := range v.ChildrenAt(s) {
			f.children = append(f.children, c.ID)
		}
		out[s] = f
	}
	return out
}

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
		sortByTS(batch)
		out = append(out, [2]interface{}{now, batch})
	}
	return out
}

// checkWindowSlots asserts that w's active elements and occupied slots are
// one to one and agree with its ID map.
func checkWindowSlots(t *testing.T, w *ActiveWindow) {
	t.Helper()
	n := 0
	w.ForEachActiveSlot(func(e *Element, s Slot) {
		n++
		if got, ok := w.SlotOf(e.ID); !ok || got != s {
			t.Fatalf("element %d sits in slot %d, its ID maps to %d (%v)", e.ID, s, got, ok)
		}
	})
	if n != w.NumActive() {
		t.Fatalf("%d occupied slots for %d active elements", n, w.NumActive())
	}
}

// The expiry heap pops entries of equal time in the order container/heap
// popped them: the order a window exports and expires in depends on it.
func TestExpiryHeapKeepsContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h expiryHeap
	var ref refHeap
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) > 0 || len(h) == 0 {
			x := expiryEntry{at: Time(rng.Intn(40)), id: ElemID(i)}
			h.push(x)
			ref.push(x)
			continue
		}
		if got, want := h.pop(), ref.pop(); got != want {
			t.Fatalf("pop %d: got %+v, want %+v", i, got, want)
		}
	}
}

// refHeap is the container/heap implementation the typed heap replaced.
type refHeap []expiryEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(expiryEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
func (h *refHeap) push(x expiryEntry) { heap.Push(h, x) }
func (h *refHeap) pop() expiryEntry   { return heap.Pop(h).(expiryEntry) }

// Built in one go, as Restore builds it, the heap also pops in
// container/heap's order.
func TestExpiryHeapInitKeepsContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var h expiryHeap
	var ref refHeap
	for i := 0; i < 500; i++ {
		x := expiryEntry{at: Time(rng.Intn(30)), id: ElemID(i)}
		h, ref = append(h, x), append(ref, x)
	}
	h.init()
	heap.Init(&ref)
	for len(h) > 0 {
		if got, want := h.pop(), ref.pop(); got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
}
