// Package rankedlist implements the per-topic ranked lists RL_1..RL_z of
// §4.1: ordered collections of ⟨δ_i(e), t_e⟩ tuples sorted by topic-wise
// representativeness score in descending order, with O(log n) insert,
// reposition and delete.
//
// The ordered structure is a skip list with levels derived deterministically
// from the element ID, so runs are reproducible without a seed and the
// expected O(log n) bounds still hold for adversarial insert orders.
//
// A list finds its nodes by the element's slot (stream.Slot), not by its
// ID: the lists of one engine buffer share a node Table whose row s holds
// the nodes of the element in slot s, one per topic, at the topic's
// position j in the element's topic vector. A standalone list (New) can
// instead be driven by element ID through Upsert, Delete and Get, a shim
// over an ID map it builds on first use; the engine never calls them.
//
// Two mechanisms serve the engine's double-buffered concurrency
// architecture (DESIGN.md §6, §9):
//
//   - Freeze publishes an O(1) immutable Snapshot sharing the list's
//     nodes and makes the list read-only; Thaw re-enables in-place
//     mutation once the engine's readers have drained.
//   - UpsertAt/DeleteAt return the structural Op each mutation performed
//     — final tuple, kind, per-level position hints — and Apply replays
//     such ops onto a replica list, splicing recorded tuples verbatim
//     (O(1) for the common short nodes) instead of recomputing scores.
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

// linkLevels is how many levels a node links inline. Levels are
// geometric (p=1/2), so 87.5% of nodes have no more, and the node stays
// one 64-byte allocation — one cache line for a descent to read.
const linkLevels = 3

type node struct {
	item Item
	slot stream.Slot // the element's slot: its row in the node table
	j    uint16      // the list's topic position in the element's topics: its column
	list uint16      // the number of the list the node is in, on its table
	// link holds the successors at levels 0..linkLevels-1 (index 0 is the
	// full linked list), up those at the levels above: nil for a node of
	// at most linkLevels levels, level-linkLevels entries otherwise.
	link [linkLevels]*node
	up   *[]*node
}

// newNode allocates a node of the given level.
func newNode(item Item, lvl int) *node {
	n := &node{item: item}
	if lvl > linkLevels {
		up := make([]*node, lvl-linkLevels)
		n.up = &up
	}
	return n
}

// next returns n's successor at level lv, which n must reach.
func (n *node) next(lv int) *node {
	if lv < linkLevels {
		return n.link[lv]
	}
	return (*n.up)[lv-linkLevels]
}

// setNext sets n's successor at level lv, which n must reach.
func (n *node) setNext(lv int, m *node) {
	if lv < linkLevels {
		n.link[lv] = m
		return
	}
	(*n.up)[lv-linkLevels] = m
}

// level returns the number of levels n, a list node, links.
func (n *node) level() int { return nodeLevel(n.item.ID) }

// Table is the node table the ranked lists of one engine buffer share:
// cell (s, j) holds the node of the element in slot s in the list of its
// j-th topic, nil when it has none. A table and its lists belong to one
// writer; readers of a frozen list never read the table.
type Table struct {
	nodes []*node // cell (s, j) at s·width + j
	width int     // cells per row: the most topics an element had, at least 4
	lists uint16  // lists made on the table
}

// NewTable returns an empty node table.
func NewTable() *Table { return &Table{width: 4} }

// New returns an empty ranked list on the table.
func (t *Table) New() *List {
	t.lists++
	return &List{head: newNode(Item{}, maxLevel), tab: t, id: t.lists, level: 1}
}

// get returns cell (s, j), nil outside the table.
func (t *Table) get(s stream.Slot, j int) *node {
	if j >= t.width {
		return nil
	}
	if i := int(s)*t.width + j; i < len(t.nodes) {
		return t.nodes[i]
	}
	return nil
}

// set stores n in cell (s, j), growing the table to hold it.
func (t *Table) set(s stream.Slot, j int, n *node) {
	if j >= t.width {
		t.widen(j + 1)
	}
	i := int(s)*t.width + j
	for i >= len(t.nodes) {
		t.nodes = append(t.nodes, nil)
	}
	t.nodes[i] = n
}

// widen re-lays the table out with w cells per row.
func (t *Table) widen(w int) {
	rows := (len(t.nodes) + t.width - 1) / t.width
	nodes := make([]*node, rows*w)
	for i, n := range t.nodes {
		nodes[i/t.width*w+i%t.width] = n
	}
	t.nodes, t.width = nodes, w
}

// List is one ranked list RL_i.
//
// A list can be frozen into an immutable Snapshot (see Freeze) that shares
// its nodes. A frozen list panics on mutation until Thaw releases it; the
// engine's buffer recycling thaws only after readers drain.
type List struct {
	head  *node
	tab   *Table
	id    uint16 // the list's number on tab
	level int    // highest level in use
	size  int
	// frozen is true while the current nodes back a live Snapshot.
	frozen bool
	// ids is the ID shim's slot assignment, nil until an ID method runs.
	ids *idSlots
}

// New returns an empty standalone ranked list, on a table of its own.
func New() *List { return NewTable().New() }

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
	for lv := l.level - 1; lv >= linkLevels; lv-- {
		for {
			nx := (*x.up)[lv-linkLevels]
			if nx == nil || !less(nx.item, target) {
				break
			}
			x = nx
		}
		pred[lv] = x
	}
	for lv := min(l.level, linkLevels) - 1; lv >= 0; lv-- {
		for {
			nx := x.link[lv]
			if nx == nil || !less(nx.item, target) {
				break
			}
			x = nx
		}
		pred[lv] = x
	}
}

// node returns the list's node in cell (s, j), nil when it has none.
func (l *List) node(s stream.Slot, j int) *node {
	if n := l.tab.get(s, j); n != nil && n.list == l.id {
		return n
	}
	return nil
}

// insert splices a fresh tuple for cell (s, j), which has none, into the
// list. It returns the node's position hint (predecessor cells per level,
// when the node is short enough to hint), which the delta recorder stores
// for replay.
func (l *List) insert(s stream.Slot, j int, item Item) posHint {
	lvl := nodeLevel(item.ID)
	if lvl > l.level {
		l.level = lvl
	}
	var pred [maxLevel]*node
	l.findPredecessors(item, &pred)
	n := l.newNode(s, j, item, lvl)
	for lv := 0; lv < lvl; lv++ {
		p := pred[lv]
		if p == nil {
			p = l.head
		}
		n.setNext(lv, p.next(lv))
		p.setNext(lv, n)
	}
	l.size++
	return l.hintOf(&pred, lvl)
}

// newNode allocates the node of cell (s, j) and enters it in the table.
func (l *List) newNode(s stream.Slot, j int, item Item, lvl int) *node {
	n := newNode(item, lvl)
	n.slot, n.j, n.list = s, uint16(j), l.id
	l.tab.set(s, j, n)
	return n
}

func (l *List) remove(n *node) {
	var pred [maxLevel]*node
	l.findPredecessors(n.item, &pred)
	l.unlink(n, &pred)
}

// unlink splices n out given its predecessors (as filled by
// findPredecessors on n.item).
func (l *List) unlink(n *node, pred *[maxLevel]*node) {
	for lv := range n.level() {
		p := pred[lv]
		if p == nil {
			p = l.head
		}
		if p.next(lv) == n {
			p.setNext(lv, n.next(lv))
		}
	}
	l.dropped(n)
}

// dropped finishes the removal of n, already spliced out of every level.
func (l *List) dropped(n *node) {
	for l.level > 1 && l.head.next(l.level-1) == nil {
		l.level--
	}
	l.tab.set(n.slot, int(n.j), nil)
	l.size--
}

// GetAt returns the tuple of cell (s, j).
func (l *List) GetAt(s stream.Slot, j int) (Item, bool) {
	if n := l.node(s, j); n != nil {
		return n.item, true
	}
	return Item{}, false
}

// First returns the highest-scored tuple (the RL_i.first operation of §4.1).
func (l *List) First() (Item, bool) {
	n := l.head.link[0]
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
	if it.cur == nil || it.cur.link[0] == nil {
		return Item{}, false
	}
	it.cur = it.cur.link[0]
	return it.cur.item, true
}

// Slot returns the slot of the element whose tuple Next last returned.
func (it *Iterator) Slot() stream.Slot { return it.cur.slot }

// Items returns all tuples in ranked order (for tests and diagnostics).
func (l *List) Items() []Item { return items(l.head, l.size) }

func items(head *node, size int) []Item {
	out := make([]Item, 0, size)
	for n := head.link[0]; n != nil; n = n.link[0] {
		out = append(out, n.item)
	}
	return out
}

// idSlots is the ID shim's slot assignment: the slot of every element
// the list holds a tuple of, and the slots free for new ones.
type idSlots struct {
	slot map[stream.ElemID]stream.Slot
	free []stream.Slot
	next stream.Slot
}

// shim returns the list's ID map, made on first use. A list is driven
// either by ID or by slot, never both.
func (l *List) shim() *idSlots {
	if l.ids == nil {
		l.ids = &idSlots{slot: make(map[stream.ElemID]stream.Slot)}
	}
	return l.ids
}

// Upsert inserts the tuple for id or repositions it if already present
// (Algorithm 1 lines 7 and 11), on a list driven by ID.
func (l *List) Upsert(id stream.ElemID, score float64, lastRef stream.Time) {
	l.mustBeThawed()
	ids := l.shim()
	s, ok := ids.slot[id]
	if !ok {
		if n := len(ids.free); n > 0 {
			s, ids.free = ids.free[n-1], ids.free[:n-1]
		} else {
			s, ids.next = ids.next, ids.next+1
		}
		ids.slot[id] = s
	}
	l.UpsertAt(s, 0, id, score, lastRef)
}

// Delete removes the tuple for id, reporting whether it was present
// (Algorithm 1 line 13), on a list driven by ID.
func (l *List) Delete(id stream.ElemID) bool {
	l.mustBeThawed()
	ids := l.shim()
	s, ok := ids.slot[id]
	if !ok {
		return false
	}
	delete(ids.slot, id)
	ids.free = append(ids.free, s)
	_, ok = l.DeleteAt(s, 0)
	return ok
}

// Get returns the current tuple for id: through the ID map on a list
// driven by ID, by a walk of the list otherwise (tests and diagnostics).
func (l *List) Get(id stream.ElemID) (Item, bool) {
	if l.ids == nil {
		return find(l.head, id)
	}
	if s, ok := l.ids.slot[id]; ok {
		return l.GetAt(s, 0)
	}
	return Item{}, false
}

// find walks the list from head for id's tuple.
func find(head *node, id stream.ElemID) (Item, bool) {
	for n := head.link[0]; n != nil; n = n.link[0] {
		if n.item.ID == id {
			return n.item, true
		}
	}
	return Item{}, false
}
