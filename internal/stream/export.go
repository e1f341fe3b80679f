package stream

import (
	"fmt"
	"slices"
	"sort"
)

// ActiveRef is one member of A_t with the one per-element window fact that
// cannot be derived from the element itself: its last-referred time t_e.
type ActiveRef struct {
	ID      ElemID
	LastRef Time
}

// WindowState is a serializable dump of an ActiveWindow: every element
// ever ingested — the archive backs duplicate detection and resurrection,
// so it is part of the state, not an optimization — split into the
// archived ones and the window queue, plus the active set. Everything
// else — the ID index, the reverse reference index, the expiry queue — is
// derivable and rebuilt on restore.
type WindowState struct {
	Now Time
	// Archive holds the elements that left the window, in arrival order.
	// Export shares the window's own archive (a capped prefix, never
	// copied): the archive only grows, so the prefix stays valid while the
	// window moves on.
	Archive Archive
	// ArchivedIDs, when set, lists the archived elements' IDs in arrival
	// order, so Restore reads none of them back from the element log: a
	// loaded checkpoint has them from checking its frames. Export leaves
	// it nil.
	ArchivedIDs []ElemID
	// ArchivedMaxTS, set with ArchivedIDs, is the latest timestamp among
	// the archived elements, so Restore checks that all of them lie before
	// the window's cutoff without reading them back.
	ArchivedMaxTS Time
	// Window is the window queue W_t: the elements that arrived after the
	// archived ones, in arrival order (the order future window exits
	// replay in).
	Window []*Element
	// Active lists A_t: the in-window elements in arrival order, then the
	// out-of-window ones (kept alive by an in-window referrer) by ID, so
	// equal windows export equal states. Restore accepts any order.
	Active []ActiveRef
}

// Export dumps the window's full state in O(|A_t|): the archive is shared,
// not walked. The caller must serialize Export against Advance, as with
// all window mutation.
func (w *ActiveWindow) Export() WindowState {
	st := WindowState{
		Now:     w.now,
		Archive: w.archive.Prefix(w.head),
		Window:  slices.Clone(w.queue),
		Active:  make([]ActiveRef, 0, len(w.active)),
	}
	for _, e := range w.queue {
		st.Active = append(st.Active, ActiveRef{ID: e.ID, LastRef: w.lastRef[w.active[e.ID]]})
	}
	// Arrivals are timestamp-ordered, so the window queue holds exactly
	// the actives past the cutoff; the rest are the referenced survivors.
	cutoff := w.now - w.T
	w.ForEachActiveSlot(func(e *Element, s Slot) {
		if e.TS <= cutoff {
			st.Active = append(st.Active, ActiveRef{ID: e.ID, LastRef: w.lastRef[s]})
		}
	})
	rest := st.Active[len(w.queue):]
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	return st
}

// Restore rebuilds a window of length T from an exported state. The
// derived structures (ID index, reverse reference index, expiry queue) are
// reconstructed, and invariants are checked so a corrupt or hand-edited
// snapshot fails loudly instead of corrupting the stream: a restored
// window followed by the same Advances behaves identically to the
// original. The window adopts st.Archive without copying it (capped, so
// its first append reallocates instead of writing into the caller's
// storage) and decodes only the archived elements that are still active,
// reading those the element log holds back from it; without
// st.ArchivedIDs (and ArchivedMaxTS) it reads every archived element's ID
// and timestamp back too. The active elements get slots 0, 1, … in the
// order st.Active lists them.
func Restore(T Time, st WindowState) (*ActiveWindow, error) {
	if T <= 0 {
		return nil, fmt.Errorf("stream: window length must be positive, got %d", T)
	}
	if err := st.Archive.check(); err != nil {
		return nil, err
	}
	arch := st.Archive.Prefix(st.Archive.Len())
	n := arch.Len()
	if st.ArchivedIDs != nil && len(st.ArchivedIDs) != n {
		return nil, fmt.Errorf("stream: %d archived IDs for %d archived elements", len(st.ArchivedIDs), n)
	}
	if len(arch.Frames) > n+len(st.Window) {
		return nil, fmt.Errorf("stream: element log holds %d frames, only %d elements arrived", len(arch.Frames), n+len(st.Window))
	}
	w := NewActiveWindow(T)
	w.now = st.Now
	w.archive = arch
	for _, t := range arch.Texts {
		w.archiveText += int64(len(t))
	}
	w.index.sorted = make([]ElemID, 0, n+len(st.Window))
	na := len(st.Active)
	w.active = make(map[ElemID]Slot, na)
	w.elems, w.children = make([]*Element, na), make([]kids, na)
	w.lastRef, w.mark = make([]Time, na), make([]uint8, na)
	w.slots.next = Slot(na)
	w.queue, w.head = slices.Clone(st.Window), n
	cutoff := st.Now - T
	if st.ArchivedIDs != nil && n > 0 && st.ArchivedMaxTS > cutoff {
		return nil, fmt.Errorf("stream: an archived element at %d is in the window but outside its queue", st.ArchivedMaxTS)
	}

	for i := 0; i < n; i++ {
		var id ElemID
		if i < len(st.ArchivedIDs) {
			id = st.ArchivedIDs[i]
		} else {
			rec, _, err := arch.Record(i)
			if err != nil {
				return nil, err
			}
			id = recordID(rec)
			if ts := recordTS(rec); ts > cutoff {
				return nil, fmt.Errorf("stream: element %d at %d is in the window but outside its queue", id, ts)
			}
		}
		if _, dup := w.index.lookup(id); dup {
			return nil, fmt.Errorf("stream: duplicate element %d in window state", id)
		}
		w.index.add(id)
	}
	type ref struct {
		parent ElemID
		child  *Element
	}
	var refs []ref // the references of window-queue elements, wired below
	for i, e := range w.queue {
		switch {
		case e == nil:
			return nil, fmt.Errorf("stream: nil element at index %d in window state", n+i)
		case e.TS <= cutoff || e.TS > st.Now:
			return nil, fmt.Errorf("stream: window-queue element %d at %d outside (%d, %d]", e.ID, e.TS, cutoff, st.Now)
		case i > 0 && e.TS < w.queue[i-1].TS:
			// Arrival order is non-decreasing in TS; anything else would
			// replay window exits in the wrong order.
			return nil, fmt.Errorf("stream: window queue out of order at element %d", e.ID)
		case len(e.Topics.Probs) != len(e.Topics.Topics):
			return nil, fmt.Errorf("stream: element %d has %d topics for %d probabilities", e.ID, len(e.Topics.Topics), len(e.Topics.Probs))
		}
		if _, dup := w.index.lookup(e.ID); dup {
			return nil, fmt.Errorf("stream: duplicate element %d in window state", e.ID)
		}
		w.index.add(e.ID)
		// Only a parent that arrived before e was wired at ingest; a
		// reference to an ID that arrived later stayed dangling for good.
		for _, pid := range e.Refs {
			if _, known := w.index.lookup(pid); known {
				refs = append(refs, ref{pid, e})
			}
		}
	}

	// The archived arrivals that are still active, their IDs and slots.
	var survivors []int
	var survivorIDs []ElemID
	var survivorSlots []Slot
	for i, a := range st.Active {
		s := Slot(i)
		seq, known := w.index.lookup(a.ID)
		if !known {
			return nil, fmt.Errorf("stream: active element %d is not in the log", a.ID)
		}
		if _, dup := w.active[a.ID]; dup {
			return nil, fmt.Errorf("stream: element %d listed active twice", a.ID)
		}
		w.active[a.ID] = s
		if seq < n {
			survivors, survivorIDs, survivorSlots = append(survivors, seq), append(survivorIDs, a.ID), append(survivorSlots, s)
		} else {
			w.elems[s] = w.queue[seq-n]
		}
		if a.LastRef <= cutoff {
			return nil, fmt.Errorf("stream: active element %d has impossible last-ref %d (cutoff %d)", a.ID, a.LastRef, cutoff)
		}
		w.lastRef[s] = a.LastRef
		w.expiryQ = append(w.expiryQ, expiryEntry{at: a.LastRef, id: a.ID})
	}
	w.expiryQ.init()
	decoded, err := arch.Elements(survivors...)
	if err != nil {
		return nil, err
	}
	for j, e := range decoded {
		if e.ID != survivorIDs[j] {
			return nil, fmt.Errorf("stream: the archive holds element %d where active element %d belongs", e.ID, survivorIDs[j])
		}
		if e.TS > cutoff {
			return nil, fmt.Errorf("stream: element %d at %d is in the window but outside its queue", e.ID, e.TS)
		}
		w.elems[survivorSlots[j]] = e
	}
	for s, e := range w.elems {
		if w.lastRef[s] < e.TS {
			return nil, fmt.Errorf("stream: active element %d has impossible last-ref %d (ts %d)", e.ID, w.lastRef[s], e.TS)
		}
		w.liveBytes += liveElemBytes(e)
	}

	// Rebuild the reverse reference index I_t from the window queue: the
	// index holds exactly the in-window referrers of parents known when
	// they arrived, and every such parent is active (an element with an
	// in-window child has last-ref past the cutoff by definition).
	for _, c := range w.queue {
		if _, active := w.active[c.ID]; !active {
			return nil, fmt.Errorf("stream: window-queue element %d not marked active", c.ID)
		}
	}
	for _, r := range refs {
		p, active := w.active[r.parent]
		if !active {
			return nil, fmt.Errorf("stream: element %d referenced by in-window %d but not active", r.parent, r.child.ID)
		}
		w.addChild(p, r.child)
	}
	return w, nil
}
