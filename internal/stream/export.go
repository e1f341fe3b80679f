package stream

import (
	"container/heap"
	"fmt"
	"sort"
)

// ActiveRef is one member of A_t with the one per-element window fact that
// cannot be derived from the element itself: its last-referred time t_e.
type ActiveRef struct {
	ID      ElemID
	LastRef Time
}

// WindowState is a serializable dump of an ActiveWindow: the arrival log
// (the archive backs duplicate detection and resurrection, so it is part
// of the state, not an optimization), how much of its tail is the window,
// and the active set. Everything else — the reverse reference index, the
// expiry queue — is derivable and rebuilt on restore.
type WindowState struct {
	Now Time
	// Log is every element ever ingested, in arrival order. Export shares
	// the window's own log (capped, never copied): a prefix of an
	// append-only sequence of immutable elements is itself immutable, so
	// the slice stays valid while the window moves on.
	Log []*Element
	// InWindow says how many trailing entries of Log form the window queue
	// W_t (the order future window exits replay in).
	InWindow int
	// Active lists A_t: the in-window elements in arrival order, then the
	// out-of-window ones (kept alive by an in-window referrer) by ID, so
	// equal windows export equal states. Restore accepts any order.
	Active []ActiveRef
}

// Export dumps the window's full state in O(|A_t|): the log is shared, not
// walked. The caller must serialize Export against Advance, as with all
// window mutation.
func (w *ActiveWindow) Export() WindowState {
	log := (*w.log)[:w.end:w.end]
	st := WindowState{
		Now:      w.now,
		Log:      log,
		InWindow: w.end - w.head,
		Active:   make([]ActiveRef, 0, len(w.active)),
	}
	for _, e := range log[w.head:] {
		st.Active = append(st.Active, ActiveRef{ID: e.ID, LastRef: w.lastRef[e.ID]})
	}
	// The log is timestamp-ordered, so the window queue holds exactly the
	// actives past the cutoff; the rest are the referenced survivors.
	cutoff := w.now - w.T
	for id, e := range w.active {
		if e.TS <= cutoff {
			st.Active = append(st.Active, ActiveRef{ID: id, LastRef: w.lastRef[id]})
		}
	}
	rest := st.Active[st.InWindow:]
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	return st
}

// Restore rebuilds a window of length T from an exported state. The
// derived structures (reverse reference index, expiry queue) are
// reconstructed from the window queue, and invariants are checked so a
// corrupt or hand-edited snapshot fails loudly instead of corrupting the
// stream: a restored window followed by the same Advances behaves
// identically to the original. The window adopts st.Log without copying
// it (capped, so its first append reallocates instead of writing into the
// caller's backing array).
func Restore(T Time, st WindowState) (*ActiveWindow, error) {
	if T <= 0 {
		return nil, fmt.Errorf("stream: window length must be positive, got %d", T)
	}
	n := len(st.Log)
	if st.InWindow < 0 || st.InWindow > n {
		return nil, fmt.Errorf("stream: window queue length %d outside [0, %d]", st.InWindow, n)
	}
	w := NewActiveWindow(T)
	w.now = st.Now
	w.archive = make(map[ElemID]*Element, n)
	w.active = make(map[ElemID]*Element, len(st.Active))
	w.lastRef = make(map[ElemID]Time, len(st.Active))
	log := st.Log[:n:n]
	w.log, w.head, w.end = &log, n-st.InWindow, n
	cutoff := st.Now - T

	var refs []RefAdd // the references of window-queue elements, wired below
	for i, e := range log {
		if e == nil {
			return nil, fmt.Errorf("stream: nil element at index %d in window state", i)
		}
		if _, dup := w.archive[e.ID]; dup {
			return nil, fmt.Errorf("stream: duplicate element %d in window state", e.ID)
		}
		w.archive[e.ID] = e
		w.countArchived(e)
		switch {
		case i < w.head:
			if e.TS > cutoff {
				return nil, fmt.Errorf("stream: element %d at %d is in the window but outside its queue", e.ID, e.TS)
			}
		case e.TS <= cutoff || e.TS > st.Now:
			return nil, fmt.Errorf("stream: window-queue element %d at %d outside (%d, %d]", e.ID, e.TS, cutoff, st.Now)
		case i > w.head && e.TS < log[i-1].TS:
			// Arrival order is non-decreasing in TS; anything else would
			// replay window exits in the wrong order.
			return nil, fmt.Errorf("stream: window queue out of order at element %d", e.ID)
		}
		if i < w.head {
			continue
		}
		// Only a parent archived before e arrived was wired at ingest; a
		// reference to an ID that arrived later stayed dangling for good.
		for _, pid := range e.Refs {
			if _, known := w.archive[pid]; known {
				refs = append(refs, RefAdd{Parent: pid, Child: e})
			}
		}
	}

	for _, a := range st.Active {
		e, known := w.archive[a.ID]
		if !known {
			return nil, fmt.Errorf("stream: active element %d is not in the log", a.ID)
		}
		if _, dup := w.active[a.ID]; dup {
			return nil, fmt.Errorf("stream: element %d listed active twice", a.ID)
		}
		if a.LastRef < e.TS || a.LastRef <= cutoff {
			return nil, fmt.Errorf("stream: active element %d has impossible last-ref %d (ts %d, cutoff %d)", a.ID, a.LastRef, e.TS, cutoff)
		}
		w.active[a.ID] = e
		w.lastRef[a.ID] = a.LastRef
		*w.expiryQ = append(*w.expiryQ, expiryEntry{at: a.LastRef, id: a.ID})
	}
	heap.Init(w.expiryQ)

	// Rebuild the reverse reference index I_t from the window queue: the
	// index holds exactly the in-window referrers of parents known when
	// they arrived, and every such parent is active (an element with an
	// in-window child has last-ref past the cutoff by definition).
	for _, c := range log[w.head:] {
		if _, active := w.active[c.ID]; !active {
			return nil, fmt.Errorf("stream: window-queue element %d not marked active", c.ID)
		}
	}
	for _, r := range refs {
		if _, active := w.active[r.Parent]; !active {
			return nil, fmt.Errorf("stream: element %d referenced by in-window %d but not active", r.Parent, r.Child.ID)
		}
		w.addChild(r.Parent, r.Child)
	}
	return w, nil
}
