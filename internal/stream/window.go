package stream

import (
	"container/heap"
	"fmt"
	"sort"
)

// ChangeSet describes what an Advance call did to the active set; the query
// engine uses it to maintain the per-topic ranked lists (Algorithm 1).
type ChangeSet struct {
	Now Time
	// Inserted are the newly arrived in-window elements, in arrival order.
	Inserted []*Element
	// Updated are active parents whose influenced set I_t(e) gained at least
	// one new child this advance (their δ_i scores must be recomputed and
	// repositioned, Algorithm 1 lines 8–11). Deduplicated; excludes elements
	// already listed in Inserted.
	Updated []*Element
	// Expired are elements discarded from the active set: they left the
	// window and are no longer referred to by any in-window element
	// (Algorithm 1 lines 12–13).
	Expired []*Element
}

// ActiveWindow maintains the sliding window W_t and the active set A_t.
//
// Besides window membership it maintains the reverse reference index
// I_t(e) = {e' ∈ W_t : e ∈ e'.ref} needed by the influence score, and the
// last-referred timestamp t_e used for expiry. Elements referenced by a new
// arrival after they expired are resurrected from an internal archive, so
// the active set is always exactly the paper's A_t.
//
// Every element ever ingested sits once in an append-only arrival-order
// log; the window W_t is by construction the log's suffix, so window exit
// is a head index moving forward and a state export (Export) costs the
// active set, not the history.
//
// ActiveWindow is not safe for concurrent mutation; the engine serializes
// Advance calls and allows concurrent reads between them.
type ActiveWindow struct {
	T   Time // window length
	now Time

	active map[ElemID]*Element
	// archive holds every element ever ingested, for duplicate detection
	// and resurrection. It is consulted only from the serialized writer
	// path (Advance, Known, Export), never by concurrent readers, so twin
	// windows share one copy (see ShareWriterState).
	archive map[ElemID]*Element

	// children[p] = I_t(p): the in-window elements that refer to p, kept
	// sorted by child ID. The slice (rather than a map) makes every
	// iteration deterministic, so float sums over I_t(e) — the influence
	// scores — are bit-reproducible across runs and across restores.
	children map[ElemID][]*Element
	// lastRef is t_e: max(e.TS, TS of latest in-window referrer). Writer-
	// path only, shareable between twins like archive.
	lastRef map[ElemID]Time

	// log holds every element ever ingested in arrival order — the
	// archive as a sequence. It is append-only and only the serialized
	// writer path appends, so twin windows share one copy like the archive
	// (ShareWriterState) and an exported prefix stays immutable. The window
	// queue W_t is log[head:end]: end counts the arrivals this window has
	// applied (a replaying twin trails the shared log by the deltas it has
	// not replayed yet), head is the oldest in-window arrival.
	log       *[]*Element
	head, end int
	// expiryQ is a lazy min-heap over (lastRef, id) for active-set expiry.
	// Mutation-path only, shareable between twins like archive.
	expiryQ *expiryHeap
	// bytes approximates the heap footprint of the archive — element
	// payloads plus a flat per-element bookkeeping overhead. It grows with
	// every archive insert and never shrinks (the archive never drops
	// elements), feeding the hub's residency accounting. Writer-path only
	// and shared between twins like archive, so the shared copy of every
	// element is counted exactly once.
	bytes *int64
}

// elemOverheadBytes is the flat per-archived-element bookkeeping estimate
// rolled into the bytes counter: map entries (archive, active, lastRef,
// children), the arrival-log slot, expiry-heap entries and the ranked-list
// tuples the element occupies in the lists of its topics.
const elemOverheadBytes = 176

// NewActiveWindow returns an empty window of length T. It panics if T ≤ 0
// (a programming error, not a data error).
func NewActiveWindow(T Time) *ActiveWindow {
	if T <= 0 {
		panic(fmt.Sprintf("stream: window length must be positive, got %d", T))
	}
	return &ActiveWindow{
		T:        T,
		active:   make(map[ElemID]*Element),
		archive:  make(map[ElemID]*Element),
		children: make(map[ElemID][]*Element),
		lastRef:  make(map[ElemID]Time),
		expiryQ:  new(expiryHeap),
		bytes:    new(int64),
		log:      new([]*Element),
	}
}

// ApproxBytes reports the approximate heap bytes held by the window's
// archive (see the bytes field). Like Known it reads writer-shared state:
// callers must serialize it with Advance/ApplyDelta.
func (w *ActiveWindow) ApproxBytes() int64 { return *w.bytes }

// countArchived charges one newly archived element to the byte estimate.
func (w *ActiveWindow) countArchived(e *Element) {
	*w.bytes += e.ApproxBytes() + elemOverheadBytes
}

// Now returns the current window time t.
func (w *ActiveWindow) Now() Time { return w.now }

// NumActive returns n_t = |A_t|.
func (w *ActiveWindow) NumActive() int { return len(w.active) }

// Get returns an active element by ID.
func (w *ActiveWindow) Get(id ElemID) (*Element, bool) {
	e, ok := w.active[id]
	return e, ok
}

// Known reports whether id was ever ingested into this window (active,
// expired or archived). Producers must never reuse a known ID. Known
// reads the archive — writer-shared under ShareWriterState — so callers
// must serialize it with Advance/ApplyDelta (the engine's writer path
// does).
func (w *ActiveWindow) Known(id ElemID) bool {
	_, ok := w.archive[id]
	return ok
}

// InWindow reports whether e itself lies in W_t (as opposed to being active
// only because it is referenced).
func (w *ActiveWindow) InWindow(e *Element) bool { return e.TS > w.now-w.T }

// Children returns I_t(e): the in-window elements referring to id, in
// ascending child-ID order. The returned slice is freshly allocated.
func (w *ActiveWindow) Children(id ElemID) []*Element {
	cs := w.children[id]
	if len(cs) == 0 {
		return nil
	}
	return append([]*Element(nil), cs...)
}

// ChildrenView returns I_t(e) like Children but without copying: the
// window's own slice, in ascending child-ID order. The caller must not
// mutate it and must not use it across an Advance/ApplyDelta — queries read
// it under their snapshot pin.
func (w *ActiveWindow) ChildrenView(id ElemID) []*Element { return w.children[id] }

// NumChildren returns |I_t(e)| without allocating.
func (w *ActiveWindow) NumChildren(id ElemID) int { return len(w.children[id]) }

// addChild inserts c into parent's sorted child list (idempotent for a
// duplicate reference within one element's ref list).
func (w *ActiveWindow) addChild(parent ElemID, c *Element) {
	cs := w.children[parent]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ID >= c.ID })
	if i < len(cs) && cs[i].ID == c.ID {
		return
	}
	cs = append(cs, nil)
	copy(cs[i+1:], cs[i:])
	cs[i] = c
	w.children[parent] = cs
}

// removeChild drops child from parent's sorted child list, deleting the
// entry when it empties.
func (w *ActiveWindow) removeChild(parent, child ElemID) {
	cs, ok := w.children[parent]
	if !ok {
		return
	}
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ID >= child })
	if i == len(cs) || cs[i].ID != child {
		return
	}
	if len(cs) == 1 {
		delete(w.children, parent)
		return
	}
	w.children[parent] = append(cs[:i], cs[i+1:]...)
}

// LastRef returns t_e, the time the active element id was last referred to
// (its own timestamp if never referenced). The second result is false for
// inactive elements. Like Known, it reads writer-shared state and must be
// serialized with Advance/ApplyDelta.
func (w *ActiveWindow) LastRef(id ElemID) (Time, bool) {
	t, ok := w.lastRef[id]
	return t, ok
}

// ForEachChild calls fn for every in-window element referring to id, in
// ascending child-ID order — a deterministic order, so float accumulations
// over I_t(e) (the influence scores) are bit-reproducible.
func (w *ActiveWindow) ForEachChild(id ElemID, fn func(*Element)) {
	for _, c := range w.children[id] {
		fn(c)
	}
}

// ForEachActive calls fn for every active element in unspecified order.
func (w *ActiveWindow) ForEachActive(fn func(*Element)) {
	for _, e := range w.active {
		fn(e)
	}
}

// ActiveIDs returns the sorted IDs of all active elements (deterministic
// iteration for tests and baselines).
func (w *ActiveWindow) ActiveIDs() []ElemID {
	ids := make([]ElemID, 0, len(w.active))
	for id := range w.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Advance moves the window to time now and ingests batch (a bucket's
// elements in non-decreasing timestamp order, all with TS ≤ now and TS >
// previous now — so the arrival log stays timestamp-ordered and window
// exits pop its head). It returns the resulting ChangeSet. Elements
// referencing IDs never seen before have those references ignored.
func (w *ActiveWindow) Advance(now Time, batch []*Element) (ChangeSet, error) {
	return w.advance(now, batch, nil)
}

// AdvanceRecorded is Advance additionally returning the structural Delta
// of the advance, for replay onto a replica window via ApplyDelta.
func (w *ActiveWindow) AdvanceRecorded(now Time, batch []*Element) (ChangeSet, *Delta, error) {
	rec := &Delta{Now: now, Batch: batch, RefAdds: make([]RefAdd, 0, len(batch)*2)}
	cs, err := w.advance(now, batch, rec)
	if err != nil {
		return cs, nil, err
	}
	rec.Expired = cs.Expired
	return cs, rec, nil
}

func (w *ActiveWindow) advance(now Time, batch []*Element, rec *Delta) (ChangeSet, error) {
	if now < w.now {
		return ChangeSet{}, fmt.Errorf("stream: time moved backwards %d → %d", w.now, now)
	}
	cs := ChangeSet{Now: now}
	prevNow := w.now
	w.now = now

	// Phase 1: insert arrivals and wire references.
	updated := make(map[ElemID]*Element)
	prevTS := prevNow
	for _, e := range batch {
		if e.TS <= prevNow || e.TS > now {
			return ChangeSet{}, fmt.Errorf("stream: element %d at %d outside bucket (%d, %d]", e.ID, e.TS, prevNow, now)
		}
		if e.TS < prevTS {
			return ChangeSet{}, fmt.Errorf("stream: element %d at %d arrives after later timestamp %d", e.ID, e.TS, prevTS)
		}
		prevTS = e.TS
		if _, dup := w.archive[e.ID]; dup {
			return ChangeSet{}, fmt.Errorf("stream: duplicate element ID %d", e.ID)
		}
		w.archive[e.ID] = e
		w.countArchived(e)
		w.active[e.ID] = e
		w.lastRef[e.ID] = e.TS
		*w.log = append(*w.log, e)
		w.end++
		heap.Push(w.expiryQ, expiryEntry{at: e.TS, id: e.ID})
		cs.Inserted = append(cs.Inserted, e)

		for _, pid := range e.Refs {
			parent, known := w.archive[pid]
			if !known {
				continue // dangling reference: producer referenced an element we never saw
			}
			if _, isActive := w.active[pid]; !isActive {
				// Resurrect: the parent re-enters A_t because a window
				// element now refers to it.
				w.active[pid] = parent
				cs.Inserted = append(cs.Inserted, parent)
				if rec != nil {
					rec.Resurrected = append(rec.Resurrected, parent)
				}
			}
			w.addChild(pid, e)
			w.lastRef[pid] = e.TS
			heap.Push(w.expiryQ, expiryEntry{at: e.TS, id: pid})
			if rec != nil {
				rec.RefAdds = append(rec.RefAdds, RefAdd{Parent: pid, Child: e})
			}
			if _, justIn := updated[pid]; !justIn {
				updated[pid] = parent
			}
		}
	}

	// Phase 2: slide the window — drop out-of-window children from the
	// reference index (influence is restricted to W_t, Equation 4).
	cutoff := now - w.T // keep elements with TS > cutoff
	w.slideOut(cutoff)

	// Phase 3: expire actives never referred to after the cutoff.
	for w.expiryQ.Len() > 0 && (*w.expiryQ)[0].at <= cutoff {
		entry := heap.Pop(w.expiryQ).(expiryEntry)
		e, isActive := w.active[entry.id]
		if !isActive || w.lastRef[entry.id] > cutoff {
			continue // stale heap entry (element was re-referenced or already gone)
		}
		delete(w.active, entry.id)
		delete(w.lastRef, entry.id)
		delete(w.children, entry.id)
		delete(updated, entry.id)
		cs.Expired = append(cs.Expired, e)
	}

	// Deduplicate Updated against Inserted (a resurrected parent is already
	// reported as inserted; its δ is computed fresh anyway).
	inserted := make(map[ElemID]struct{}, len(cs.Inserted))
	for _, e := range cs.Inserted {
		inserted[e.ID] = struct{}{}
	}
	for id, e := range updated {
		if _, dup := inserted[id]; !dup {
			cs.Updated = append(cs.Updated, e)
		}
	}
	sort.Slice(cs.Updated, func(i, j int) bool { return cs.Updated[i].ID < cs.Updated[j].ID })
	return cs, nil
}

// ShareWriterState makes two windows share the state that only the
// serialized writer path ever touches: the archive and its arrival-order
// log (duplicate detection, resurrection, export), the last-ref times and
// the expiry heap. It is only legal for windows the caller advances in
// lockstep over the same logical stream with all mutation serialized — the
// engine's double buffer: the two windows' logical states are identical at
// every hand-off and no concurrent reader dereferences these structures
// (queries read only the active set and the reference index, which stay
// per-window). Delta replay (ApplyDelta) relies on it: it skips maintaining
// them — the recording advance already did — and the archive, the largest
// map in the system (it holds every element ever ingested), exists once
// instead of twice.
func ShareWriterState(a, b *ActiveWindow) {
	b.archive = a.archive
	b.log = a.log
	b.lastRef = a.lastRef
	b.expiryQ = a.expiryQ
	b.bytes = a.bytes
}

// slideOut moves the window head past the exits (arrival order, TS ≤
// cutoff), dropping each exiting child from the reference index. Shared
// verbatim between Advance and ApplyDelta so the two paths cannot drift.
func (w *ActiveWindow) slideOut(cutoff Time) {
	log := *w.log
	for w.head < w.end && log[w.head].TS <= cutoff {
		child := log[w.head]
		w.head++
		for _, pid := range child.Refs {
			w.removeChild(pid, child.ID)
		}
	}
}

// expiryEntry is a lazy expiry marker: the element with this id may be
// removable once time passes at + T.
type expiryEntry struct {
	at Time
	id ElemID
}

type expiryHeap []expiryEntry

func (h expiryHeap) Len() int            { return len(h) }
func (h expiryHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x interface{}) { *h = append(*h, x.(expiryEntry)) }
func (h *expiryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
