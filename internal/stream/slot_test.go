package stream

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// Twin windows in the engine's rhythm — one records a bucket, the other
// replays it just before recording the next, roles alternating — through
// random buckets with resurrections, IDs out of order, flushes and a
// restore: after every bucket the active elements and their slots are one
// to one in both windows, the slots the bucket handed out are free in the
// twin that has yet to replay it (so a slot given back is reused only from
// the next bucket on), and once caught up the twins are identical.
func TestSlotsFollowTheActiveSet(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const T = 20
		lead := NewActiveWindow(T)
		lag := lead.Replica()
		var pending *Delta
		freed := map[Slot]bool{}
		reused, resurrected := 0, 0
		ids := rng.Perm(400)
		now := Time(0)
		for b := 0; b < 80; b++ {
			if pending != nil {
				lag.ApplyDelta(pending)
				lead, lag = lag, lead
			}
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
			cs, d, err := lead.AdvanceRecorded(now, batch)
			if err != nil {
				t.Fatal(err)
			}
			resurrected += len(cs.Inserted) - len(batch)
			for _, s := range cs.InsertedSlots {
				if e := lag.At(s); e != nil {
					t.Fatalf("seed %d bucket %d: slot %d handed out while the lagging twin holds element %d in it", seed, b, s, e.ID)
				}
				if freed[s] {
					reused++
				}
			}
			for _, s := range cs.ExpiredSlots {
				freed[s] = true
			}
			checkWindowSlots(t, lead)
			checkWindowSlots(t, lag)
			pending = d

			if b == 40 {
				// A restore hands the slots out afresh, in the export's
				// active order, and the twins carry on from it.
				lag.ApplyDelta(pending)
				r, err := Restore(T, lead.Export())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(snapshotFacts(r), snapshotFacts(lead)) {
					t.Fatalf("seed %d: restored window diverges", seed)
				}
				lead, lag, pending = r, r.Replica(), nil
				checkWindowSlots(t, lead)
			}
		}
		if reused == 0 || resurrected == 0 {
			t.Fatalf("seed %d: %d slots reused and %d elements resurrected; the script must do both", seed, reused, resurrected)
		}
		lag.ApplyDelta(pending)
		if !reflect.DeepEqual(lag.Export(), lead.Export()) || !reflect.DeepEqual(snapshotFacts(lag), snapshotFacts(lead)) {
			t.Fatalf("seed %d: twins diverge once caught up", seed)
		}
	}
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
