package rankedlist

import "github.com/social-streams/ksir/internal/stream"

// Snapshot is one published version of a list: the same ranked-iteration
// API the query traversal uses (First/Iter/Next) plus the lookup and dump
// helpers, safe for any number of concurrent readers while the writer
// goes on writing the next version.
//
// A snapshot shares the list's nodes. It reads its version unchanged until
// a Sweep after a later publish unlinks the nodes that version still sees:
// Thaw and the engine's recycle sweep only once no reader of it remains.
type Snapshot struct {
	head *node
	seq  int64
	size int
}

// Freeze publishes the version being written of a list alone on its table
// (New) and returns it as a Snapshot in O(1). The list stays writable:
// later writes go to the next version, which the snapshot does not see.
func (l *List) Freeze() *Snapshot {
	return &Snapshot{head: l.head, seq: l.tab.Publish(), size: l.size}
}

// Thaw declares that no reader of a snapshot older than the last Freeze
// remains, and unlinks the nodes only those could see; the last snapshot
// stays readable.
func (l *List) Thaw() { l.tab.Sweep() }

// Len returns the number of tuples in the snapshot.
func (s *Snapshot) Len() int { return s.size }

// First returns the highest-scored tuple (RL_i.first of §4.1).
func (s *Snapshot) First() (Item, bool) { return s.Iter().Next() }

// Get returns the tuple for id as of the snapshot, by a walk of the
// snapshot (tests and diagnostics).
func (s *Snapshot) Get(id stream.ElemID) (Item, bool) { return find(s.head, s.seq, id) }

// Iter returns an iterator positioned before the first tuple; it walks the
// snapshot in ranked (descending score) order.
func (s *Snapshot) Iter() *Iterator { return &Iterator{cur: s.head, seq: s.seq} }

// Items returns all tuples in ranked order.
func (s *Snapshot) Items() []Item { return items(s.head, s.seq, s.size) }
