package stream

// RefAdd records one reference-index insertion: Child (in-window) was
// wired as a referrer of the parent in slot Parent, bumping the parent's
// last-ref time to Child.TS.
type RefAdd struct {
	Parent Slot
	Child  *Element
}

// Delta is the structural record of one Advance: every decision the
// advance made — which arrivals entered, which parents were resurrected,
// which references were wired, which actives expired — with the decisions
// themselves (duplicate checks, resurrection tests, staleness filtering)
// already taken. ApplyDelta replays it onto a replica window sharing the
// same immutable *Element values, reproducing the exact post-Advance
// state without re-deriving any of it.
type Delta struct {
	Now Time
	// Batch is the bucket's arrivals in order, queued on replay (the
	// recording advance already indexed them).
	Batch []*Element
	// Inserted are the elements that entered A_t, with their slots: the
	// arrivals and the previously expired parents a batch element refers
	// to, decoded from the archive by the recording advance; replay
	// adopts the same values in the same slots.
	Inserted      []*Element
	InsertedSlots []Slot
	// RefAdds are the reference-index insertions in wiring order (dangling
	// references already dropped).
	RefAdds []RefAdd
	// Expired are the elements the advance removed from the active set,
	// with the slots they gave back.
	Expired      []*Element
	ExpiredSlots []Slot
}

// ApplyDelta replays a recorded advance onto this window, which must share
// its writer-path state with the recording window (Replica). The
// contract mirrors the engine's buffer recycling: the window is
// byte-identical to the recording window just before its Advance, so
// replaying the delta — same insertions, same wiring, the same window-exit
// scan, the recorded expiries — leaves it byte-identical to the recording
// window just after. No duplicate detection, resurrection lookup or expiry
// staleness check runs: those decisions are already in the delta. The
// index, archive, last-ref, heap and slot-pool writes are not repeated
// either: the recording advance already made them in the shared
// structures.
func (w *ActiveWindow) ApplyDelta(d *Delta) {
	w.now = d.Now

	// Phase 1: arrivals, resurrections and reference wiring, as recorded.
	for i, e := range d.Inserted {
		w.place(e, d.InsertedSlots[i])
	}
	w.queue = append(w.queue, d.Batch...)
	for _, ra := range d.RefAdds {
		w.addChild(ra.Parent, ra.Child)
	}

	// Phase 2: the window-exit scan is pure state, shared with Advance.
	w.slideOut(d.Now - w.T)

	// Phase 3: expiries as recorded.
	for i, e := range d.Expired {
		w.unplace(e.ID, d.ExpiredSlots[i])
	}
}
