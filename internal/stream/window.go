package stream

import (
	"cmp"
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

// Slot is an active element's row in the per-element tables of its
// window and of the scorer and ranked lists built over it. An element gets
// a slot when it enters the active set — on arrival or on resurrection —
// and gives it back when it expires; a slot given back in one advance is
// handed out again from the next advance on. Slots depend on the history
// of the advances, not only on the state they lead to, so they are never
// persisted, exported or used to order anything an answer depends on:
// Restore hands them out afresh.
type Slot uint32

// ChangeSet describes what an Advance call did to the active set; the query
// engine uses it to maintain the per-topic ranked lists (Algorithm 1).
// Each element list has a parallel list of the elements' slots.
type ChangeSet struct {
	Now Time
	// Inserted are the newly arrived in-window elements, in arrival order,
	// each followed by the expired parents its references resurrected.
	Inserted []*Element
	// Updated are active parents whose influenced set I_t(e) gained at least
	// one new child this advance (their δ_i scores must be recomputed and
	// repositioned, Algorithm 1 lines 8–11). Deduplicated; excludes elements
	// already listed in Inserted.
	Updated []*Element
	// Expired are elements discarded from the active set: they left the
	// window and are no longer referred to by any in-window element
	// (Algorithm 1 lines 12–13). An element inserted and expired by the
	// same advance is in both lists.
	Expired []*Element

	InsertedSlots, UpdatedSlots, ExpiredSlots []Slot
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
// Per-element state lives in tables indexed by the element's Slot rather
// than in maps keyed by its ID: the element itself, I_t(e) and t_e here,
// the word weights in the scorer, the list nodes in the ranked lists. Only
// the lookups that start from an ID — a reference, a duplicate check, an
// explanation — go through the ID map of the active set. Twin windows
// (Replica) hold equal tables, each its own copy, so the replica a query
// reads is never written by the advance of the other. A slot an advance
// gives back is handed out again from the next advance on, once the other
// twin has replayed the one that gave it back; slots are never exported,
// and Restore hands them out afresh (see Slot).
//
// ActiveWindow is not safe for concurrent mutation; the engine serializes
// Advance calls and allows concurrent reads between them.
type ActiveWindow struct {
	T   Time // window length
	now Time

	// active maps the ID of every member of A_t to its slot.
	active map[ElemID]Slot
	// elems[s] is the active element in slot s, nil for a free slot.
	elems []*Element
	// children[s] = I_t(e) of the element in slot s: the in-window
	// elements that refer to it, kept sorted by child ID. The slice
	// (rather than a set) makes every iteration deterministic, so float
	// sums over I_t(e) — the influence scores — are bit-reproducible
	// across runs and across restores.
	children [][]*Element
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
	// lastRef[s] is t_e of the active element in slot s: max(e.TS, TS of
	// the latest in-window referrer).
	lastRef []Time
	// expiryQ is a lazy min-heap over (lastRef, id) for active-set expiry.
	expiryQ expiryHeap
	// liveBytes sums the footprint of the elements held as Go values
	// (liveElemBytes); ApproxBytes adds the archive's storage.
	liveBytes int64
	// slots hands out the slots of elements entering the active set.
	slots slotPool
	// mark[s] is the slot's part in the current advance (markInserted,
	// markUpdated, markGone), 0 outside an advance; updated lists the
	// slots marked updated, in the order they were.
	mark    []uint8
	updated []Slot
}

// Slot marks of one advance.
const (
	markInserted = 1 + iota // entered the active set
	markUpdated             // gained a child
	markGone                // gained a child, then expired
)

// slotPool hands out slots: the lowest never-used one, or one given
// back, most recent first. An advance takes every slot it hands out in
// phase 1, before phase 3 gives any back, so a slot given back in one
// advance is handed out again at the earliest by the next — when the
// engine's other buffer, which a query may still read with the expired
// element in that slot, has replayed the advance that gave it back.
type slotPool struct {
	free []Slot
	next Slot // slots ever handed out
}

func (p *slotPool) get() Slot {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.next++
	return p.next - 1
}

func (p *slotPool) put(s Slot) { p.free = append(p.free, s) }

// grow returns t with room for index s, new entries zero.
func grow[T any](t []T, s Slot) []T {
	for int(s) >= len(t) {
		var zero T
		t = append(t, zero)
	}
	return t
}

// Per-entry heap costs for ApproxBytes, measured on amd64 with Go 1.24;
// TestResidentBytesTrackHeap holds the total to the live heap.
// mapEntryBytes is one entry of a map keyed by element ID, growth slack
// included. An element held as a Go value costs, beyond its own fields,
// liveBaseBytes — its entries in both twins' active maps and slot tables,
// the last-ref table and the expiry heap, its scorer-cache entries, its
// row of the lists' node table, its share of the pending delta — plus,
// for each of its topics, liveTopicBytes — its one versioned list node
// (both buffers read the same lists) — and a cached weight per term.
const (
	mapEntryBytes  = 32
	liveBaseBytes  = 347
	liveTopicBytes = 130
)

// NewActiveWindow returns an empty window of length T. It panics if T ≤ 0
// (a programming error, not a data error).
func NewActiveWindow(T Time) *ActiveWindow {
	if T <= 0 {
		panic(fmt.Sprintf("stream: window length must be positive, got %d", T))
	}
	return &ActiveWindow{
		T:      T,
		active: make(map[ElemID]Slot),
		ws:     &writerState{},
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
		elems:    slices.Clone(w.elems),
		children: make([][]*Element, len(w.children)),
		queue:    slices.Clone(w.queue),
		head:     w.head,
		ws:       w.ws,
	}
	for s, cs := range w.children {
		r.children[s] = slices.Clone(cs)
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
	s, ok := w.active[id]
	if !ok {
		return nil, false
	}
	return w.elems[s], true
}

// SlotOf returns the slot of the active element id.
func (w *ActiveWindow) SlotOf(id ElemID) (Slot, bool) {
	s, ok := w.active[id]
	return s, ok
}

// At returns the active element in slot s, nil for a free slot.
func (w *ActiveWindow) At(s Slot) *Element {
	if int(s) < len(w.elems) {
		return w.elems[s]
	}
	return nil
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
	cs := w.ChildrenView(id)
	if len(cs) == 0 {
		return nil
	}
	return append([]*Element(nil), cs...)
}

// ChildrenView returns I_t(e) like Children but without copying: the
// window's own slice, in ascending child-ID order. The caller must not
// mutate it and must not use it across an Advance/ApplyDelta — queries read
// it under their snapshot pin.
func (w *ActiveWindow) ChildrenView(id ElemID) []*Element {
	s, ok := w.active[id]
	if !ok {
		return nil
	}
	return w.ChildrenAt(s)
}

// ChildrenAt is ChildrenView for the active element in slot s.
func (w *ActiveWindow) ChildrenAt(s Slot) []*Element {
	if int(s) < len(w.children) {
		return w.children[s]
	}
	return nil
}

// NumChildren returns |I_t(e)| without allocating.
func (w *ActiveWindow) NumChildren(id ElemID) int { return len(w.ChildrenView(id)) }

// addChild inserts c into the sorted child list of the parent in slot p
// (idempotent for a duplicate reference within one element's ref list).
func (w *ActiveWindow) addChild(p Slot, c *Element) {
	cs := w.children[p]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ID >= c.ID })
	if i < len(cs) && cs[i].ID == c.ID {
		return
	}
	cs = append(cs, nil)
	copy(cs[i+1:], cs[i:])
	cs[i] = c
	w.children[p] = cs
}

// removeChild drops child from the sorted child list of the active
// element parent, if it is there.
func (w *ActiveWindow) removeChild(parent, child ElemID) {
	p, ok := w.active[parent]
	if !ok {
		return
	}
	cs := w.children[p]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ID >= child })
	if i == len(cs) || cs[i].ID != child {
		return
	}
	if len(cs) == 1 {
		w.children[p] = nil
		return
	}
	w.children[p] = append(cs[:i], cs[i+1:]...)
}

// place puts e into the active set at slot s, growing the window's tables
// to hold it.
func (w *ActiveWindow) place(e *Element, s Slot) {
	w.active[e.ID] = s
	w.elems = grow(w.elems, s)
	w.children = grow(w.children, s)
	w.elems[s] = e
}

// unplace takes the element id in slot s out of the active set.
func (w *ActiveWindow) unplace(id ElemID, s Slot) {
	delete(w.active, id)
	w.elems[s] = nil
	w.children[s] = nil
}

// LastRef returns t_e, the time the active element id was last referred to
// (its own timestamp if never referenced). The second result is false for
// inactive elements. Like Known, it reads writer-shared state and must be
// serialized with Advance/ApplyDelta.
func (w *ActiveWindow) LastRef(id ElemID) (Time, bool) {
	s, ok := w.active[id]
	if !ok {
		return 0, false
	}
	return w.ws.lastRef[s], true
}

// LastRefAt is LastRef for the active element in slot s.
func (w *ActiveWindow) LastRefAt(s Slot) Time { return w.ws.lastRef[s] }

// ForEachChild calls fn for every in-window element referring to id, in
// ascending child-ID order — a deterministic order, so float accumulations
// over I_t(e) (the influence scores) are bit-reproducible.
func (w *ActiveWindow) ForEachChild(id ElemID, fn func(*Element)) {
	for _, c := range w.ChildrenView(id) {
		fn(c)
	}
}

// ForEachActive calls fn for every active element in unspecified order.
func (w *ActiveWindow) ForEachActive(fn func(*Element)) {
	for _, e := range w.elems {
		if e != nil {
			fn(e)
		}
	}
}

// ForEachActiveSlot calls fn for every active element and its slot, in
// slot order — an order that depends on the window's history, so nothing
// an answer depends on may follow it.
func (w *ActiveWindow) ForEachActiveSlot(fn func(*Element, Slot)) {
	for s, e := range w.elems {
		if e != nil {
			fn(e, Slot(s))
		}
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
	rec.Inserted, rec.InsertedSlots = cs.Inserted, cs.InsertedSlots
	rec.Expired, rec.ExpiredSlots = cs.Expired, cs.ExpiredSlots
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
		s := w.enter(e, &cs)
		ws.lastRef[s] = e.TS
		w.queue = append(w.queue, e)
		ws.expiryQ.push(expiryEntry{at: e.TS, id: e.ID})

		for _, pid := range e.Refs {
			if _, known := ws.index.lookup(pid); !known {
				continue // dangling reference: producer referenced an element we never saw
			}
			p, isActive := w.active[pid]
			if !isActive {
				// Resurrect: the parent re-enters A_t because a window
				// element now refers to it. Only an element that left
				// the window can be inactive, so it is archived, and the
				// pre-pass read its record. Records it read for a parent
				// already resurrected are the second references to it.
				for recordID(pulled[0].rec) != pid {
					pulled = pulled[1:]
				}
				p = w.enter(w.resurrect(pulled[0], storage), &cs)
				pulled = pulled[1:]
			}
			w.addChild(p, e)
			ws.lastRef[p] = e.TS
			ws.expiryQ.push(expiryEntry{at: e.TS, id: pid})
			if rec != nil {
				rec.RefAdds = append(rec.RefAdds, RefAdd{Parent: p, Child: e})
			}
			if ws.mark[p] == 0 {
				ws.mark[p] = markUpdated
				ws.updated = append(ws.updated, p)
			}
		}
	}

	// Phase 2: slide the window — drop out-of-window children from the
	// reference index (influence is restricted to W_t, Equation 4).
	cutoff := now - w.T // keep elements with TS > cutoff
	w.slideOut(cutoff)

	// Phase 3: expire actives never referred to after the cutoff.
	for len(ws.expiryQ) > 0 && ws.expiryQ[0].at <= cutoff {
		entry := ws.expiryQ.pop()
		s, isActive := w.active[entry.id]
		if !isActive || ws.lastRef[s] > cutoff {
			continue // stale heap entry (element was re-referenced or already gone)
		}
		e := w.elems[s]
		w.unplace(entry.id, s)
		ws.slots.put(s)
		if ws.mark[s] == markUpdated {
			ws.mark[s] = markGone
		}
		ws.liveBytes -= liveElemBytes(e)
		cs.Expired = append(cs.Expired, e)
		cs.ExpiredSlots = append(cs.ExpiredSlots, s)
	}

	// Updated lists the parents that gained a child, are still active and
	// did not enter in this advance (a resurrected parent is reported as
	// inserted; its δ is computed fresh anyway), by ID.
	kept := ws.updated[:0]
	for _, p := range ws.updated {
		if ws.mark[p] == markUpdated {
			kept = append(kept, p)
		}
		ws.mark[p] = 0
	}
	slices.SortFunc(kept, func(a, b Slot) int { return cmp.Compare(w.elems[a].ID, w.elems[b].ID) })
	if len(kept) > 0 {
		cs.Updated = make([]*Element, len(kept))
		for i, p := range kept {
			cs.Updated[i] = w.elems[p]
		}
		cs.UpdatedSlots = slices.Clone(kept)
	}
	ws.updated = kept[:0]
	for _, s := range cs.InsertedSlots {
		ws.mark[s] = 0
	}
	return cs, nil
}

// enter gives e, an arrival or a resurrected parent, a slot in the active
// set and reports it in cs as inserted.
func (w *ActiveWindow) enter(e *Element, cs *ChangeSet) Slot {
	ws := w.ws
	s := ws.slots.get()
	ws.lastRef = grow(ws.lastRef, s)
	ws.mark = grow(ws.mark, s)
	ws.mark[s] = markInserted
	w.place(e, s)
	cs.Inserted = append(cs.Inserted, e)
	cs.InsertedSlots = append(cs.InsertedSlots, s)
	return s
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

// expiryHeap is a binary min-heap on at. Its sift-up and sift-down are
// container/heap's, step for step, so entries of equal at pop in the same
// order they always have; typed, a push boxes nothing.
type expiryHeap []expiryEntry

func (h *expiryHeap) push(x expiryEntry) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

func (h *expiryHeap) pop() expiryEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	x := old[n]
	*h = old[:n]
	return x
}

// init establishes the heap order over arbitrary entries.
func (h expiryHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h expiryHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h expiryHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].at < h[j1].at {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
