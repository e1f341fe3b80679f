// Package rankedlist implements the per-topic ranked lists RL_1..RL_z of
// §4.1: ordered collections of ⟨δ_i(e), t_e⟩ tuples sorted by topic-wise
// representativeness score in descending order, with O(log n) insert,
// reposition and delete keyed by element ID.
//
// The ordered structure is a skip list with levels derived deterministically
// from the element ID, so runs are reproducible without a seed and the
// expected O(log n) bounds still hold for adversarial insert orders.
//
// Two mechanisms serve the engine's double-buffered concurrency
// architecture (DESIGN.md §6, §9):
//
//   - Freeze publishes an O(1) immutable Snapshot sharing the list's
//     nodes and makes the list read-only; Thaw re-enables in-place
//     mutation once the engine's readers have drained.
//   - UpsertRecorded/DeleteRecorded return the structural Op each
//     mutation performed — final tuple, kind, per-level position hints —
//     and ApplyDelta replays such ops onto a replica list, splicing
//     recorded tuples verbatim (O(1) for the common short nodes) instead
//     of recomputing scores.
package rankedlist

import (
	"math/bits"

	"github.com/social-streams/ksir/internal/stream"
)

// Item is one ranked-list tuple ⟨δ_i(e), t_e⟩ plus the element ID it belongs
// to.
type Item struct {
	ID      stream.ElemID
	Score   float64     // δ_i(e), the topic-wise representativeness score
	LastRef stream.Time // t_e, the time the element was last referred to
}

// less reports whether a precedes b in ranked order: higher score first,
// ties broken by smaller ID for determinism.
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

const maxLevel = 24

type node struct {
	item Item
	next []*node // length = node level; index 0 is the full linked list
	// inline backs next for the common short nodes (p=1/2 geometric
	// levels: 75% are ≤ 2), making such nodes a single allocation.
	inline [2]*node
}

// newNode allocates a node of the given level, using the inline array
// when it fits.
func newNode(item Item, lvl int) *node {
	n := &node{item: item}
	if lvl <= len(n.inline) {
		n.next = n.inline[:lvl:lvl]
	} else {
		n.next = make([]*node, lvl)
	}
	return n
}

// List is one ranked list RL_i.
//
// A list can be frozen into an immutable Snapshot (see Freeze) that shares
// its nodes. A frozen list panics on mutation until Thaw releases it; the
// engine's buffer recycling thaws only after readers drain.
type List struct {
	head  *node
	index map[stream.ElemID]*node
	level int // highest level in use
	size  int
	// frozen is true while the current nodes back a live Snapshot.
	frozen bool
}

// New returns an empty ranked list.
func New() *List {
	return &List{
		head:  &node{next: make([]*node, maxLevel)},
		index: make(map[stream.ElemID]*node),
		level: 1,
	}
}

// Len returns the number of tuples.
func (l *List) Len() int { return l.size }

// nodeLevel derives a deterministic level in [1, maxLevel] from the element
// ID via a splitmix64 hash: level = 1 + trailing zeros of the hash, the
// usual p=1/2 geometric distribution.
func nodeLevel(id stream.ElemID) int {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	lvl := 1 + bits.TrailingZeros64(x|1<<(maxLevel-1))
	if lvl > maxLevel {
		lvl = maxLevel
	}
	return lvl
}

// findPredecessors fills pred with, per level, the last node whose item
// precedes target.
func (l *List) findPredecessors(target Item, pred *[maxLevel]*node) {
	x := l.head
	for lv := l.level - 1; lv >= 0; lv-- {
		for x.next[lv] != nil && less(x.next[lv].item, target) {
			x = x.next[lv]
		}
		pred[lv] = x
	}
}

// Upsert inserts the tuple for id or repositions it if already present
// (Algorithm 1 lines 7 and 11).
func (l *List) Upsert(id stream.ElemID, score float64, lastRef stream.Time) {
	l.mustBeThawed()
	if n, ok := l.index[id]; ok {
		if n.item.Score == score {
			n.item.LastRef = lastRef // position unchanged
			return
		}
		l.remove(n)
	}
	l.insert(Item{ID: id, Score: score, LastRef: lastRef})
}

// insert splices a fresh tuple (id not present) into the list. It returns
// the node's position hint (predecessor IDs per level, when the node is
// short enough to hint), which the delta recorder stores for replay.
func (l *List) insert(item Item) posHint {
	lvl := nodeLevel(item.ID)
	if lvl > l.level {
		l.level = lvl
	}
	var pred [maxLevel]*node
	l.findPredecessors(item, &pred)
	n := newNode(item, lvl)
	for lv := 0; lv < lvl; lv++ {
		p := pred[lv]
		if p == nil {
			p = l.head
		}
		n.next[lv] = p.next[lv]
		p.next[lv] = n
	}
	l.index[item.ID] = n
	l.size++
	return l.hintOf(&pred, lvl)
}

// Delete removes the tuple for id, reporting whether it was present
// (Algorithm 1 line 13).
func (l *List) Delete(id stream.ElemID) bool {
	l.mustBeThawed()
	n, ok := l.index[id]
	if !ok {
		return false
	}
	l.remove(n)
	return true
}

func (l *List) remove(n *node) {
	var pred [maxLevel]*node
	l.findPredecessors(n.item, &pred)
	l.unlink(n, &pred)
}

// unlink splices n out given its predecessors (as filled by
// findPredecessors on n.item).
func (l *List) unlink(n *node, pred *[maxLevel]*node) {
	for lv := 0; lv < len(n.next); lv++ {
		p := pred[lv]
		if p == nil {
			p = l.head
		}
		if p.next[lv] == n {
			p.next[lv] = n.next[lv]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	delete(l.index, n.item.ID)
	l.size--
}

// Get returns the current tuple for id.
func (l *List) Get(id stream.ElemID) (Item, bool) {
	n, ok := l.index[id]
	if !ok {
		return Item{}, false
	}
	return n.item, true
}

// First returns the highest-scored tuple (the RL_i.first operation of §4.1).
func (l *List) First() (Item, bool) {
	n := l.head.next[0]
	if n == nil {
		return Item{}, false
	}
	return n.item, true
}

// Iterator walks the list in ranked (descending score) order. The list must
// not be mutated while an iterator is live; the query engine guarantees this
// by iterating only over frozen Snapshots, which no mutation can reach
// before Thaw.
type Iterator struct {
	cur *node
}

// Iter returns an iterator positioned before the first tuple.
func (l *List) Iter() *Iterator { return &Iterator{cur: l.head} }

// Next advances and returns the next tuple (the RL_i.next operation).
func (it *Iterator) Next() (Item, bool) {
	if it.cur == nil || it.cur.next[0] == nil {
		return Item{}, false
	}
	it.cur = it.cur.next[0]
	return it.cur.item, true
}

// Items returns all tuples in ranked order (for tests and diagnostics).
func (l *List) Items() []Item {
	out := make([]Item, 0, l.size)
	for n := l.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, n.item)
	}
	return out
}
