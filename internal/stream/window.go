package stream

import (
	"container/heap"
	"fmt"
	"maps"
	"slices"
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
// Only the window queue W_t and the active set A_t hold elements as Go
// values. An element leaving the window is encoded once, in arrival
// order, into the archive's append-only records (record.go) and stays
// there for the stream's life behind an ID → arrival-number index: the paper
// drops it (Algorithm 1, lines 12–13), but a later reference resurrects
// it, and a duplicate ID must still be refused. A state export (Export)
// shares the archive instead of walking it, so it costs the active set,
// not the history.
//
// ActiveWindow is not safe for concurrent mutation; the engine serializes
// Advance calls and allows concurrent reads between them.
type ActiveWindow struct {
	T   Time // window length
	now Time

	active map[ElemID]*Element
	// children[p] = I_t(p): the in-window elements that refer to p, kept
	// sorted by child ID. The slice (rather than a map) makes every
	// iteration deterministic, so float sums over I_t(e) — the influence
	// scores — are bit-reproducible across runs and across restores.
	children map[ElemID][]*Element
	// queue is W_t, oldest first; head counts the arrivals that have left
	// it, so queue[0] is arrival number head. Each window keeps its own:
	// a replica replaying deltas (ApplyDelta) trails the recording window
	// and must still find its in-window elements when its own exits come.
	queue []*Element
	head  int
	// ws is the state only the serialized writer path touches, shared
	// by twin windows (Replica).
	ws *writerState
}

// writerState is the part of a window that only the serialized writer
// path reads or writes — never a concurrent reader — so the engine's twin
// windows share one copy (Replica) and delta replay skips maintaining it:
// the recording advance already did.
type writerState struct {
	// archive holds, in arrival order, every element that has left the
	// window of the leading twin: the first window whose head passes an
	// arrival archives it (slideOut).
	archive Archive
	// index maps every element ever ingested to its arrival number: an
	// index into archive once archived, a queue position before.
	index idIndex
	// lastRef is t_e of every active element: max(e.TS, TS of the latest
	// in-window referrer).
	lastRef map[ElemID]Time
	// expiryQ is a lazy min-heap over (lastRef, id) for active-set expiry.
	expiryQ expiryHeap
	// textBytes sums the texts of every element ever ingested and
	// liveBytes the rest of the footprint of the elements held as Go
	// values (liveElemBytes); ApproxBytes adds the archive's storage.
	textBytes, liveBytes int64
}

// Per-entry heap costs for ApproxBytes, measured on amd64 with Go 1.24;
// TestResidentBytesTrackHeap holds the total to the live heap.
// mapEntryBytes is one entry of a map keyed by element ID, growth slack
// included. An element held as a Go value costs, beyond its own fields,
// liveBaseBytes — its entries in both twins' active maps, the last-ref map
// and the expiry heap, its scorer-cache entries, its share of the pending
// delta — plus, for each of its topics, liveTopicBytes — its tuples in
// both buffers' ranked lists — and a cached weight per term.
const (
	mapEntryBytes  = 32
	liveBaseBytes  = 500
	liveTopicBytes = 200
)

// NewActiveWindow returns an empty window of length T. It panics if T ≤ 0
// (a programming error, not a data error).
func NewActiveWindow(T Time) *ActiveWindow {
	if T <= 0 {
		panic(fmt.Sprintf("stream: window length must be positive, got %d", T))
	}
	return &ActiveWindow{
		T:        T,
		active:   make(map[ElemID]*Element),
		children: make(map[ElemID][]*Element),
		ws:       &writerState{lastRef: make(map[ElemID]Time)},
	}
}

// Replica returns a window equal to w that shares w's writer state: the
// engine's twin. Both must from then on advance in lockstep over the same
// stream with all mutation serialized — one by Advance/AdvanceRecorded,
// the other by ApplyDelta of the recorded deltas, the roles free to swap
// at any hand-off — and no concurrent reader may touch the writer state
// (queries read only the active set and the reference index, which stay
// per window).
func (w *ActiveWindow) Replica() *ActiveWindow {
	r := &ActiveWindow{
		T:        w.T,
		now:      w.now,
		active:   maps.Clone(w.active),
		children: make(map[ElemID][]*Element, len(w.children)),
		queue:    slices.Clone(w.queue),
		head:     w.head,
		ws:       w.ws,
	}
	for id, cs := range w.children {
		r.children[id] = slices.Clone(cs)
	}
	return r
}

// ApproxBytes reports the approximate heap bytes held by the window's
// elements: the archive's storage and index, every text, and the elements
// held as Go values with their bookkeeping across both twins. Like Known
// it reads writer-shared state: callers must serialize it with
// Advance/ApplyDelta.
func (w *ActiveWindow) ApproxBytes() int64 {
	ws := w.ws
	a := &ws.archive
	return int64(cap(a.Records)) + 8*int64(cap(a.Ends)) + 16*int64(cap(a.Texts)) +
		ws.index.bytes() + ws.textBytes + ws.liveBytes
}

// liveElemBytes is what e costs while held as a Go value, its text
// aside (textBytes counts every text once, archived or not).
func liveElemBytes(e *Element) int64 {
	perTopic := liveTopicBytes + termCountBytes*len(e.Doc.Terms)
	return e.ApproxBytes() - int64(len(e.Text)) + liveBaseBytes + int64(perTopic*len(e.Topics.Topics))
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
// reads the writer-shared index (Replica), so callers must serialize it
// with Advance/ApplyDelta (the engine's writer path does).
func (w *ActiveWindow) Known(id ElemID) bool {
	_, ok := w.ws.index.lookup(id)
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
	t, ok := w.ws.lastRef[id]
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
	ws := w.ws

	// The elements this advance resurrects are decoded into storage sized
	// for exactly them, so a bucket allocates for its resurrections once
	// and keeps no spare room alive: every known reference to an inactive
	// element is a resurrection in phase 1 (one referred to twice is
	// counted twice).
	var resurrected slabSize
	for _, e := range batch {
		for _, pid := range e.Refs {
			if seq, known := ws.index.lookup(pid); known {
				if _, isActive := w.active[pid]; !isActive {
					resurrected.add(ws.archive.Record(seq))
				}
			}
		}
	}
	var storage *slab
	if resurrected.elems > 0 {
		storage = newSlab(resurrected)
	}

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
		if len(e.Topics.Probs) != len(e.Topics.Topics) {
			return ChangeSet{}, fmt.Errorf("stream: element %d has %d topics for %d probabilities", e.ID, len(e.Topics.Topics), len(e.Topics.Probs))
		}
		if _, dup := ws.index.lookup(e.ID); dup {
			return ChangeSet{}, fmt.Errorf("stream: duplicate element ID %d", e.ID)
		}
		ws.index.add(e.ID)
		ws.textBytes += int64(len(e.Text))
		ws.liveBytes += liveElemBytes(e)
		w.active[e.ID] = e
		ws.lastRef[e.ID] = e.TS
		w.queue = append(w.queue, e)
		heap.Push(&ws.expiryQ, expiryEntry{at: e.TS, id: e.ID})
		cs.Inserted = append(cs.Inserted, e)

		for _, pid := range e.Refs {
			seq, known := ws.index.lookup(pid)
			if !known {
				continue // dangling reference: producer referenced an element we never saw
			}
			parent, isActive := w.active[pid]
			if !isActive {
				// Resurrect: the parent re-enters A_t because a window
				// element now refers to it. Only an element that left
				// the window can be inactive, so it is archived.
				parent = w.resurrect(seq, storage)
				w.active[pid] = parent
				cs.Inserted = append(cs.Inserted, parent)
				if rec != nil {
					rec.Resurrected = append(rec.Resurrected, parent)
				}
			}
			w.addChild(pid, e)
			ws.lastRef[pid] = e.TS
			heap.Push(&ws.expiryQ, expiryEntry{at: e.TS, id: pid})
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
	for ws.expiryQ.Len() > 0 && ws.expiryQ[0].at <= cutoff {
		entry := heap.Pop(&ws.expiryQ).(expiryEntry)
		e, isActive := w.active[entry.id]
		if !isActive || ws.lastRef[entry.id] > cutoff {
			continue // stale heap entry (element was re-referenced or already gone)
		}
		delete(w.active, entry.id)
		delete(ws.lastRef, entry.id)
		delete(w.children, entry.id)
		delete(updated, entry.id)
		ws.liveBytes -= liveElemBytes(e)
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

// resurrect decodes archived arrival seq into a fresh element carved from
// storage and charges it to the live bytes. Archived records were checked
// when they were written or restored, so they decode.
func (w *ActiveWindow) resurrect(seq int, storage *slab) *Element {
	ws := w.ws
	e := storage.decode(ws.archive.Record(seq), ws.archive.Texts[seq])
	ws.liveBytes += liveElemBytes(e)
	return e
}

// slideOut moves the window head past the exits (arrival order, TS ≤
// cutoff), dropping each exiting child from the reference index. The
// first twin whose head passes an arrival archives it; the other finds
// it still in its own queue. Shared verbatim between Advance and
// ApplyDelta so the two paths cannot drift.
func (w *ActiveWindow) slideOut(cutoff Time) {
	for len(w.queue) > 0 && w.queue[0].TS <= cutoff {
		child := w.queue[0]
		w.queue[0] = nil // the queue must not keep an exited element alive
		w.queue = w.queue[1:]
		if w.head == w.ws.archive.Len() {
			w.ws.archive.Append(child)
		}
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
