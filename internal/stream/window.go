package stream

import (
	"container/heap"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// ErrArchiveRead reports an advance that failed because an archived
// element a reference resurrects could not be read back — from the
// element log, a failed read or a frame that fails its checks. The window
// is left as it was before the advance.
var ErrArchiveRead = errors.New("stream: reading back an archived element")

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
// values. An element leaving the window joins the archive (record.go) in
// arrival order and stays there for the stream's life behind an ID →
// arrival-number index: the paper drops it (Algorithm 1, lines 12–13), but
// a later reference resurrects it, and a duplicate ID must still be
// refused. Once a checkpoint has written an element's frame to the
// stream's element log (AdoptLog), the archive keeps only where that frame
// ends and reads it back when a reference resurrects the element; until
// then it keeps the element as a record in memory. A state export (Export)
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
	// archiveText sums the texts of the archive's in-memory records.
	archiveText int64
	// index maps every element ever ingested to its arrival number: an
	// index into archive once archived, a queue position before.
	index idIndex
	// lastRef is t_e of every active element: max(e.TS, TS of the latest
	// in-window referrer).
	lastRef map[ElemID]Time
	// expiryQ is a lazy min-heap over (lastRef, id) for active-set expiry.
	expiryQ expiryHeap
	// liveBytes sums the footprint of the elements held as Go values
	// (liveElemBytes); ApproxBytes adds the archive's storage.
	liveBytes int64
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
// elements: the archive's frame ends, records and their texts, the ID
// index, and the elements held as Go values with their bookkeeping across
// both twins. An element both active and held as a record counts its
// text twice: a survivor that left the window before any checkpoint
// framed it. Like Known it reads writer-shared state: callers must
// serialize it with Advance/ApplyDelta.
func (w *ActiveWindow) ApproxBytes() int64 {
	ws := w.ws
	a := &ws.archive
	return 8*int64(cap(a.Frames)) + int64(cap(a.Records)) + 8*int64(cap(a.Ends)) + 16*int64(cap(a.Texts)) +
		ws.archiveText + ws.index.bytes() + ws.liveBytes
}

// liveElemBytes is what e costs while held as a Go value.
func liveElemBytes(e *Element) int64 {
	perTopic := liveTopicBytes + termCountBytes*len(e.Doc.Terms)
	return e.ApproxBytes() + liveBaseBytes + int64(perTopic*len(e.Topics.Topics))
}

// AdoptLog records that a checkpoint wrote the frames of arrivals first,
// first+1, … to the stream's element log, read back through log, their
// frames ending at ends: from then on the archive holds each of those
// elements as its frame's end, and drops the in-memory records it held for
// them. Arrivals still in the window are archived that way when they
// leave it. Like Known it touches writer-shared state: callers must
// serialize it with Advance/ApplyDelta.
func (w *ActiveWindow) AdoptLog(log ElementLog, first int, ends []int64) error {
	if first+len(ends) > w.ws.index.len() {
		return fmt.Errorf("stream: element log frames up to arrival %d, only %d arrived", first+len(ends), w.ws.index.len())
	}
	text, err := w.ws.archive.makeDurable(log, first, ends)
	w.ws.archiveText -= text
	return err
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
	ws := w.ws

	// Every known reference to an inactive element is a resurrection in
	// phase 1 (one referred to twice is read and counted twice). Their
	// records are read here, in reference order — from memory, or back
	// from the element log — so a failed read fails the advance before
	// anything has changed, and they are decoded into storage sized for
	// exactly them, so a bucket allocates for its resurrections once and
	// keeps no spare room alive.
	var (
		few    [8]archived // room for a typical bucket's, off the heap
		pulled = few[:0]
		need   slabSize
	)
	for _, e := range batch {
		for _, pid := range e.Refs {
			seq, known := ws.index.lookup(pid)
			if !known {
				continue
			}
			if _, isActive := w.active[pid]; isActive {
				continue
			}
			rec, text, err := ws.archive.Record(seq)
			if err == nil && recordID(rec) != pid {
				err = fmt.Errorf("the archive holds element %d in its place", recordID(rec))
			}
			if err != nil {
				return ChangeSet{}, fmt.Errorf("%w: element %d: %w", ErrArchiveRead, pid, err)
			}
			pulled = append(pulled, archived{rec, text})
			need.add(rec)
		}
	}
	var storage *slab
	if need.elems > 0 {
		storage = newSlab(need)
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
		if len(e.Topics.Probs) != len(e.Topics.Topics) {
			return ChangeSet{}, fmt.Errorf("stream: element %d has %d topics for %d probabilities", e.ID, len(e.Topics.Topics), len(e.Topics.Probs))
		}
		if _, dup := ws.index.lookup(e.ID); dup {
			return ChangeSet{}, fmt.Errorf("stream: duplicate element ID %d", e.ID)
		}
		ws.index.add(e.ID)
		ws.liveBytes += liveElemBytes(e)
		w.active[e.ID] = e
		ws.lastRef[e.ID] = e.TS
		w.queue = append(w.queue, e)
		heap.Push(&ws.expiryQ, expiryEntry{at: e.TS, id: e.ID})
		cs.Inserted = append(cs.Inserted, e)

		for _, pid := range e.Refs {
			if _, known := ws.index.lookup(pid); !known {
				continue // dangling reference: producer referenced an element we never saw
			}
			parent, isActive := w.active[pid]
			if !isActive {
				// Resurrect: the parent re-enters A_t because a window
				// element now refers to it. Only an element that left
				// the window can be inactive, so it is archived, and the
				// pre-pass read its record. Records it read for a parent
				// already resurrected are the second references to it.
				for recordID(pulled[0].rec) != pid {
					pulled = pulled[1:]
				}
				parent = w.resurrect(pulled[0], storage)
				pulled = pulled[1:]
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

// archived is an archived element's record and text, read for a
// resurrection.
type archived struct {
	rec  []byte
	text string
}

// resurrect decodes an archived element into a fresh element carved from
// storage and charges it to the live bytes. Records are checked when they
// are written, restored or read back, so they decode.
func (w *ActiveWindow) resurrect(a archived, storage *slab) *Element {
	e := storage.decode(a.rec, a.text)
	w.ws.liveBytes += liveElemBytes(e)
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
		if a := &w.ws.archive; w.head == a.Len() {
			if a.Len() >= len(a.Frames) {
				w.ws.archiveText += int64(len(child.Text))
			}
			a.Append(child)
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
