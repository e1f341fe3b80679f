package rankedlist

import "github.com/social-streams/ksir/internal/stream"

// Snapshot is an immutable view of a ranked list at the moment Freeze was
// called. It exposes the same ranked-iteration API the query traversal uses
// (First/Iter/Next) plus the lookup and dump helpers, and is safe for use by
// any number of concurrent readers without locking.
//
// A snapshot shares the list's nodes, so the list refuses every mutation
// (it panics) between Freeze and Thaw. Thaw is the caller's statement that
// no reader still uses the snapshot — the engine's contract: a buffer is
// only thawed and recycled after every reader of its snapshot has
// finished. A snapshot read after Thaw and a later mutation sees the
// mutated nodes.
type Snapshot struct {
	head *node
	size int
}

// Freeze returns an immutable Snapshot over the list's current nodes in
// O(1) and makes the list read-only until Thaw.
func (l *List) Freeze() *Snapshot {
	l.frozen = true
	return &Snapshot{head: l.head, size: l.size}
}

// Thaw declares that no reader still uses the snapshot taken by the last
// Freeze, re-enabling in-place O(log n) mutation.
func (l *List) Thaw() { l.frozen = false }

// mustBeThawed panics on a mutation of a frozen list, which would change
// what the snapshot's readers see.
func (l *List) mustBeThawed() {
	if l.frozen {
		panic("rankedlist: mutation of a frozen list (Thaw it first)")
	}
}

// Len returns the number of tuples in the snapshot.
func (s *Snapshot) Len() int { return s.size }

// First returns the highest-scored tuple (RL_i.first of §4.1).
func (s *Snapshot) First() (Item, bool) {
	n := s.head.link[0]
	if n == nil {
		return Item{}, false
	}
	return n.item, true
}

// Get returns the tuple for id as of the snapshot, by a walk of the
// snapshot (tests and diagnostics).
func (s *Snapshot) Get(id stream.ElemID) (Item, bool) { return find(s.head, id) }

// Iter returns an iterator positioned before the first tuple; it walks the
// snapshot in ranked (descending score) order.
func (s *Snapshot) Iter() *Iterator { return &Iterator{cur: s.head} }

// Items returns all tuples in ranked order.
func (s *Snapshot) Items() []Item { return items(s.head, s.size) }
