package stream

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// ErrArchiveRead reports an advance that failed because an archived
// element a reference resurrects could not be read back — from the
// element log, a failed read or a frame that fails its checks — or was
// refused by the window's Check. The window is left as it was before the
// advance.
var ErrArchiveRead = errors.New("stream: reading back an archived element")

// Slot is an active element's row in the per-element tables of its
// window and of the scorer and ranked lists built over it. An element gets
// a slot when it enters the active set — on arrival or on resurrection —
// and gives it back when it expires; a slot given back in one advance is
// released, and handed out again, from the next advance on. Slots depend on the history
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
	// Released are the slots the previous advance gave back (its
	// ExpiredSlots), cleared and free again from this advance on.
	Released []Slot
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
// explanation — go through the ID map of the active set.
//
// Every advance is a version, numbered from the window's creation. A View
// taken after an advance reads that version by slot while later advances
// run, under two rules that make the reads race-free without copying the
// window (DESIGN.md §6):
//   - A slot an advance gives back keeps its element until the next
//     advance, which clears it before it hands out any slot. So a slot is
//     refilled at the earliest two versions after the last one that held
//     its element, and the holder of a View of version v must have
//     stopped reading before the advance to version v+2 starts.
//   - I_t(e) keeps two versions per slot, each stamped with the version
//     that wrote it (see kids): a View reads the newest one not past its
//     own, and an advance writes the other.
//
// Everything else — the ID map, the queue, the archive and its index, t_e,
// the expiry heap — is read and written by the serialized writer only:
// every method that takes an ID or walks the active set must be serialized
// with Advance.
type ActiveWindow struct {
	T   Time // window length
	now Time
	// ver is the number of advances since the window was made or
	// restored: the version the last advance wrote.
	ver int64

	// active maps the ID of every member of A_t to its slot.
	active map[ElemID]Slot
	// elems[s] is the active element in slot s, nil for a free slot; a
	// slot the last advance gave back still holds its element (retired).
	elems []*Element
	// children[s] = I_t(e) of the element in slot s, in two versions.
	children []kids
	// queue is W_t, oldest first; head counts the arrivals that have left
	// it, so queue[0] is arrival number head.
	queue []*Element
	head  int
	// retired are the slots the last advance gave back, released by the
	// next one (ChangeSet.Released).
	retired []Slot

	// Check, when set, vets every archived element an advance resurrects
	// before the window changes: an element it refuses fails the advance
	// with ErrArchiveRead. The engine sets it to its model's bounds.
	Check func(*Element) error

	// archive holds, in arrival order, every element that has left the
	// window.
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
	// markUpdated, markGone), markRetired from the advance that gave it
	// back to the one that releases it, 0 otherwise; updated lists the
	// slots marked updated, in the order they were.
	mark    []uint8
	updated []Slot
}

// Slot marks.
const (
	markInserted = 1 + iota // entered the active set
	markUpdated             // gained a child
	markGone                // gained a child, then expired
	markRetired             // given back, not yet released
)

// kids is I_t(e) of one slot in two versions: the in-window elements that
// refer to the slot's element, sorted by child ID. The slice (rather than
// a set) makes every iteration deterministic, so float sums over I_t(e) —
// the influence scores — are bit-reproducible across runs and restores.
//
// born is the window version that wrote a version's list, read and
// written atomically; a reader at version v takes the newest list born at
// or before v. The first change an advance makes to a slot's children
// copies the newest list into the other version's storage and stamps it
// with the advance's version; later changes in the same advance edit it
// in place. The version overwritten is never one a reader can take: a
// reader of version v exists only until the advance to v+2 starts, and
// while the advance to v+1 runs, the newest list born at or before v is
// the one it leaves alone. Steady state, both versions keep their storage
// and an advance allocates only to grow one. A slot released to be
// refilled drops both (born 0, no list).
type kids [2]struct {
	born int64
	list []*Element
}

// newest is the index of the version the writer last wrote.
func (k *kids) newest() int {
	if k[1].born > k[0].born {
		return 1
	}
	return 0
}

// at returns the list a reader of version v reads.
func (k *kids) at(v int64) []*Element {
	b0, b1 := atomic.LoadInt64(&k[0].born), atomic.LoadInt64(&k[1].born)
	if b0 > v || b1 <= v && b1 > b0 {
		return k[1].list
	}
	return k[0].list
}

// View is a window version a reader holds: the slot tables as the advance
// that wrote the version left them. It reads by slot only, without locking,
// and stays valid until the advance two versions later starts (see
// ActiveWindow). A View of a window being advanced is taken between
// advances by the writer.
type View struct {
	elems    []*Element
	children []kids
	ver      int64
}

// View returns the version the last advance wrote.
func (w *ActiveWindow) View() View { return View{w.elems, w.children, w.ver} }

// At returns the element in slot s at the view's version; the slot must
// hold an element active at that version for the answer to mean anything.
func (v View) At(s Slot) *Element {
	if int(s) < len(v.elems) {
		return v.elems[s]
	}
	return nil
}

// ChildrenAt returns I_t(e) of the element in slot s at the view's
// version, in ascending child-ID order. The slice is the window's own.
func (v View) ChildrenAt(s Slot) []*Element {
	if int(s) < len(v.children) {
		return v.children[s].at(v.ver)
	}
	return nil
}

// slotPool hands out slots: the lowest never-used one, or one released,
// most recent first. A slot is released by the advance after the one that
// gave it back, before any slot is handed out (ActiveWindow).
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
// liveBaseBytes — its entries in the active map and the slot tables (both
// versions of its children), the last-ref table and the expiry heap, and
// its row of the lists' node table — plus, for each of its topics,
// liveTopicBytes — its versioned list node. Its σ cache is the scorer's to
// count (score.Scorer.Bytes).
const (
	mapEntryBytes  = 32
	liveBaseBytes  = 239
	liveTopicBytes = 90
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
	}
}

// ApproxBytes reports the approximate heap bytes held by the window's
// elements: the archive's frame ends, records and their texts, the ID
// index, and the elements held as Go values with their bookkeeping. An
// element both active and held as a record counts its text twice: a
// survivor that left the window before any checkpoint framed it.
func (w *ActiveWindow) ApproxBytes() int64 {
	a := &w.archive
	return 8*int64(cap(a.Frames)) + int64(cap(a.Records)) + 8*int64(cap(a.Ends)) + 16*int64(cap(a.Texts)) +
		w.archiveText + w.index.bytes() + w.liveBytes
}

// liveElemBytes is what e costs while held as a Go value.
func liveElemBytes(e *Element) int64 {
	return e.ApproxBytes() + liveBaseBytes + int64(liveTopicBytes*len(e.Topics.Topics))
}

// AdoptLog records that a checkpoint wrote the frames of arrivals first,
// first+1, … to the stream's element log, read back through log, their
// frames ending at ends: from then on the archive holds each of those
// elements as its frame's end, and drops the in-memory records it held for
// them. Arrivals still in the window are archived that way when they
// leave it.
func (w *ActiveWindow) AdoptLog(log ElementLog, first int, ends []int64) error {
	if first+len(ends) > w.index.len() {
		return fmt.Errorf("stream: element log frames up to arrival %d, only %d arrived", first+len(ends), w.index.len())
	}
	text, err := w.archive.makeDurable(log, first, ends)
	w.archiveText -= text
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

// At returns the active element in slot s, nil for a free or retired slot.
func (w *ActiveWindow) At(s Slot) *Element {
	if int(s) < len(w.elems) && w.mark[s] != markRetired {
		return w.elems[s]
	}
	return nil
}

// Known reports whether id was ever ingested into this window (active,
// expired or archived). Producers must never reuse a known ID.
func (w *ActiveWindow) Known(id ElemID) bool {
	_, ok := w.index.lookup(id)
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
// mutate it and must not use it across an Advance.
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
		k := &w.children[s]
		return k[k.newest()].list
	}
	return nil
}

// NumChildren returns |I_t(e)| without allocating.
func (w *ActiveWindow) NumChildren(id ElemID) int { return len(w.ChildrenView(id)) }

// writable returns the version of slot p's children this advance writes,
// made from the newest one on the advance's first change (see kids).
func (w *ActiveWindow) writable(p Slot) *[]*Element {
	k := &w.children[p]
	n := k.newest()
	if k[n].born == w.ver {
		return &k[n].list
	}
	o := &k[1-n]
	o.list = append(o.list[:0], k[n].list...)
	atomic.StoreInt64(&o.born, w.ver)
	return &o.list
}

// addChild inserts c into the sorted child list of the parent in slot p
// (idempotent for a duplicate reference within one element's ref list).
func (w *ActiveWindow) addChild(p Slot, c *Element) {
	cs := w.ChildrenAt(p)
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ID >= c.ID })
	if i < len(cs) && cs[i].ID == c.ID {
		return
	}
	l := w.writable(p)
	cs = append(*l, nil)
	copy(cs[i+1:], cs[i:])
	cs[i] = c
	*l = cs
}

// removeChild drops child from the sorted child list of the active
// element parent, if it is there.
func (w *ActiveWindow) removeChild(parent, child ElemID) {
	p, ok := w.active[parent]
	if !ok {
		return
	}
	cs := w.ChildrenAt(p)
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ID >= child })
	if i == len(cs) || cs[i].ID != child {
		return
	}
	l := w.writable(p)
	if len(*l) == 1 {
		*l = nil
		return
	}
	*l = append((*l)[:i], (*l)[i+1:]...)
}

// LastRef returns t_e, the time the active element id was last referred to
// (its own timestamp if never referenced). The second result is false for
// inactive elements.
func (w *ActiveWindow) LastRef(id ElemID) (Time, bool) {
	s, ok := w.active[id]
	if !ok {
		return 0, false
	}
	return w.lastRef[s], true
}

// LastRefAt is LastRef for the active element in slot s.
func (w *ActiveWindow) LastRefAt(s Slot) Time { return w.lastRef[s] }

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
	w.ForEachActiveSlot(func(e *Element, _ Slot) { fn(e) })
}

// ForEachActiveSlot calls fn for every active element and its slot, in
// slot order — an order that depends on the window's history, so nothing
// an answer depends on may follow it.
func (w *ActiveWindow) ForEachActiveSlot(fn func(*Element, Slot)) {
	for s, e := range w.elems {
		if e != nil && w.mark[s] != markRetired {
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
//
// The advance writes the window's next version. It first releases the
// slots the previous advance gave back (ChangeSet.Released): the holder
// of a View two versions old must have stopped reading by then.
func (w *ActiveWindow) Advance(now Time, batch []*Element) (ChangeSet, error) {
	if now < w.now {
		return ChangeSet{}, fmt.Errorf("stream: time moved backwards %d → %d", w.now, now)
	}

	// Every known reference to an inactive element is a resurrection in
	// phase 1 (one referred to twice is read and counted twice). Their
	// records are read here, in reference order — from memory, or back
	// from the element log — and decoded into storage sized for exactly
	// them, so a bucket allocates for its resurrections once and keeps no
	// spare room alive, and a failed read or a refused element fails the
	// advance before anything has changed.
	var (
		few    [8]archived // room for a typical bucket's, off the heap
		pulled = few[:0]
		need   slabSize
	)
	for _, e := range batch {
		for _, pid := range e.Refs {
			seq, known := w.index.lookup(pid)
			if !known {
				continue
			}
			if _, isActive := w.active[pid]; isActive {
				continue
			}
			rec, text, err := w.archive.Record(seq)
			if err == nil && recordID(rec) != pid {
				err = fmt.Errorf("the archive holds element %d in its place", recordID(rec))
			}
			if err != nil {
				return ChangeSet{}, fmt.Errorf("%w: element %d: %w", ErrArchiveRead, pid, err)
			}
			pulled = append(pulled, archived{rec: rec, text: text})
			need.add(rec)
		}
	}
	if need.elems > 0 {
		storage := newSlab(need)
		for i := range pulled {
			e := storage.decode(pulled[i].rec, pulled[i].text)
			if w.Check != nil {
				if err := w.Check(e); err != nil {
					return ChangeSet{}, fmt.Errorf("%w: element %d: %w", ErrArchiveRead, e.ID, err)
				}
			}
			pulled[i].e = e
		}
	}

	cs := ChangeSet{Now: now, Released: w.retired}
	prevNow := w.now
	w.now = now
	w.ver++
	for _, s := range w.retired {
		w.elems[s] = nil
		w.children[s] = kids{} // no View reads a released slot
		w.mark[s] = 0
		w.slots.put(s)
	}
	w.retired = nil

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
		if _, dup := w.index.lookup(e.ID); dup {
			return ChangeSet{}, fmt.Errorf("stream: duplicate element ID %d", e.ID)
		}
		w.index.add(e.ID)
		w.liveBytes += liveElemBytes(e)
		s := w.enter(e, &cs)
		w.lastRef[s] = e.TS
		w.queue = append(w.queue, e)
		w.expiryQ.push(expiryEntry{at: e.TS, id: e.ID})

		for _, pid := range e.Refs {
			if _, known := w.index.lookup(pid); !known {
				continue // dangling reference: producer referenced an element we never saw
			}
			p, isActive := w.active[pid]
			if !isActive {
				// Resurrect: the parent re-enters A_t because a window
				// element now refers to it. Only an element that left
				// the window can be inactive, so it is archived, and the
				// pre-pass decoded it. Elements it decoded for a parent
				// already resurrected are the second references to it.
				for pulled[0].e.ID != pid {
					pulled = pulled[1:]
				}
				parent := pulled[0].e
				w.liveBytes += liveElemBytes(parent)
				p = w.enter(parent, &cs)
				pulled = pulled[1:]
			}
			w.addChild(p, e)
			w.lastRef[p] = e.TS
			w.expiryQ.push(expiryEntry{at: e.TS, id: pid})
			if w.mark[p] == 0 {
				w.mark[p] = markUpdated
				w.updated = append(w.updated, p)
			}
		}
	}

	// Phase 2: slide the window — drop out-of-window children from the
	// reference index (influence is restricted to W_t, Equation 4).
	cutoff := now - w.T // keep elements with TS > cutoff
	w.slideOut(cutoff)

	// Phase 3: expire actives never referred to after the cutoff. The slot
	// keeps its element until the next advance releases it.
	for len(w.expiryQ) > 0 && w.expiryQ[0].at <= cutoff {
		entry := w.expiryQ.pop()
		s, isActive := w.active[entry.id]
		if !isActive || w.lastRef[s] > cutoff {
			continue // stale heap entry (element was re-referenced or already gone)
		}
		e := w.elems[s]
		delete(w.active, entry.id)
		if w.mark[s] == markUpdated {
			w.mark[s] = markGone
		}
		w.liveBytes -= liveElemBytes(e)
		cs.Expired = append(cs.Expired, e)
		cs.ExpiredSlots = append(cs.ExpiredSlots, s)
	}

	// Updated lists the parents that gained a child, are still active and
	// did not enter in this advance (a resurrected parent is reported as
	// inserted; its δ is computed fresh anyway), by ID.
	kept := w.updated[:0]
	for _, p := range w.updated {
		if w.mark[p] == markUpdated {
			kept = append(kept, p)
		}
		w.mark[p] = 0
	}
	slices.SortFunc(kept, func(a, b Slot) int { return cmp.Compare(w.elems[a].ID, w.elems[b].ID) })
	if len(kept) > 0 {
		cs.Updated = make([]*Element, len(kept))
		for i, p := range kept {
			cs.Updated[i] = w.elems[p]
		}
		cs.UpdatedSlots = slices.Clone(kept)
	}
	w.updated = kept[:0]
	for _, s := range cs.InsertedSlots {
		w.mark[s] = 0
	}
	for _, s := range cs.ExpiredSlots {
		w.mark[s] = markRetired
	}
	w.retired = cs.ExpiredSlots
	return cs, nil
}

// enter gives e, an arrival or a resurrected parent, a slot in the active
// set and reports it in cs as inserted.
func (w *ActiveWindow) enter(e *Element, cs *ChangeSet) Slot {
	s := w.slots.get()
	w.active[e.ID] = s
	w.elems = grow(w.elems, s)
	w.children = grow(w.children, s)
	w.lastRef = grow(w.lastRef, s)
	w.mark = grow(w.mark, s)
	w.elems[s] = e
	w.mark[s] = markInserted
	cs.Inserted = append(cs.Inserted, e)
	cs.InsertedSlots = append(cs.InsertedSlots, s)
	return s
}

// archived is an archived element's record and text, read for a
// resurrection, and the element decoded from them.
type archived struct {
	rec  []byte
	text string
	e    *Element
}

// slideOut moves the window head past the exits (arrival order, TS ≤
// cutoff), archiving each exiting element and dropping it from the
// reference index.
func (w *ActiveWindow) slideOut(cutoff Time) {
	for len(w.queue) > 0 && w.queue[0].TS <= cutoff {
		child := w.queue[0]
		w.queue[0] = nil // the queue must not keep an exited element alive
		w.queue = w.queue[1:]
		if a := &w.archive; a.Len() >= len(a.Frames) {
			w.archiveText += int64(len(child.Text))
		}
		w.archive.Append(child)
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
