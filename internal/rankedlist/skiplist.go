// Package rankedlist implements the per-topic ranked lists RL_1..RL_z of
// §4.1: ordered collections of tuples sorted by topic-wise
// representativeness score δ_i(e) in descending order, with O(log n)
// insert, reposition and delete. The paper's tuple is ⟨δ_i(e), t_e⟩; here
// a tuple is ⟨element ID, δ_i(e)⟩ alone, because no list operation reads
// t_e: expiry runs off the window's own record of it
// (stream.ActiveWindow.LastRef), so a reference that leaves δ_i(e) as it
// was leaves the list as it was.
//
// The ordered structure is a skip list with levels derived deterministically
// from the element ID, so runs are reproducible without a seed and the
// expected O(log n) bounds still hold for adversarial insert orders.
//
// A list finds its nodes by the element's slot (stream.Slot), not by its
// ID: the lists of one engine share a node Table whose row s holds the
// nodes of the element in slot s, one per topic, at the topic's position j
// in the element's topic vector. A standalone list (New) can instead be
// driven by element ID through Upsert, Delete and Get, a shim over an ID
// map it builds on first use; the engine never calls them.
//
// The lists are versioned (DESIGN.md §6): one writer and any number of
// readers share the nodes, with no second copy. The table numbers
// versions; every node carries the version that linked it (born) and the
// one that removed it (died), and a reader of version v walks only the
// nodes with born ≤ v < died. A write never changes a tuple a reader can
// see: an insert links a node born in the version being written, a delete
// sets died, and a rescore does both; an upsert of an unchanged score
// writes nothing. Publish ends a version; Sweep unlinks the nodes
// published versions removed, once no reader of an older version
// remains. Readers walk the bottom level only, so its links and died are
// the only fields written while they run, and the only atomic ones.
package rankedlist

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/social-streams/ksir/internal/stream"
)

// Item is one ranked-list tuple: the element ID and δ_i(e).
type Item struct {
	ID    stream.ElemID
	Score float64 // δ_i(e), the topic-wise representativeness score
}

const maxLevel = 24

// linkLevels is how many levels a node links inline. Levels are
// geometric (p=1/2), so 87.5% of nodes have no more.
const linkLevels = 3

// alive is the died of a node no version has removed.
const alive = math.MaxInt64

type node struct {
	item Item
	born int64        // the version that linked the node
	died atomic.Int64 // the version that removed it; alive until then
	// next is the successor at level 0, the full list readers walk.
	next atomic.Pointer[node]
	// link holds the successors at levels 1..linkLevels-1, up those at the
	// levels above: nil for a node of at most linkLevels levels,
	// level-linkLevels entries otherwise. Only the writer reads them.
	link [linkLevels - 1]*node
	up   *[]*node
	// prev is the predecessor at level 0. Only the writer reads it: walking
	// back from a node finds its predecessor at every level, so an unlink
	// needs no descent.
	prev *node
	slot stream.Slot // the element's slot: its row in the node table
	j    uint16      // the list's topic position in the element's topics: its column
	list uint16      // the number of the list the node is in, on its table
}

// newNode allocates a node of the given level, alive.
func newNode(item Item, born int64, lvl int) *node {
	n := &node{item: item, born: born}
	n.died.Store(alive)
	if lvl > linkLevels {
		up := make([]*node, lvl-linkLevels)
		n.up = &up
	}
	return n
}

// nextAt returns n's successor at level lv, which n must reach.
func (n *node) nextAt(lv int) *node {
	switch {
	case lv == 0:
		return n.next.Load()
	case lv < linkLevels:
		return n.link[lv-1]
	}
	return (*n.up)[lv-linkLevels]
}

// setNext sets n's successor at level lv, which n must reach.
func (n *node) setNext(lv int, m *node) {
	switch {
	case lv == 0:
		n.next.Store(m)
	case lv < linkLevels:
		n.link[lv-1] = m
	default:
		(*n.up)[lv-linkLevels] = m
	}
}

// level returns the number of levels n, a list node, links.
func (n *node) level() int { return nodeLevel(n.item.ID) }

// in reports whether version v sees n.
func (n *node) in(v int64) bool { return n.born <= v && v < n.died.Load() }

// before reports whether n precedes the node of tuple it born in version
// born: higher score first, ties broken by smaller ID for determinism,
// then by the older node (the two nodes of one element a rescore leaves
// until the sweep).
func (n *node) before(it Item, born int64) bool {
	if n.item.Score != it.Score {
		return n.item.Score > it.Score
	}
	if n.item.ID != it.ID {
		return n.item.ID < it.ID
	}
	return n.born < born
}

// Table is the node table the ranked lists of one engine share: cell
// (s, j) holds the live node of the element in slot s in the list of its
// j-th topic, nil when it has none. It also numbers the lists' versions.
// A table and its lists belong to one writer; readers never read the
// table.
type Table struct {
	nodes []*node // cell (s, j) at s·width + j
	width int     // cells per row: the most topics an element had, at least 4
	lists []*List // by number
	seq   int64   // the version writes go to
	// dead holds the removed nodes still linked, in the order they died.
	dead []*node
}

// NewTable returns an empty node table whose writes go to version seq.
func NewTable(seq int64) *Table { return &Table{width: 4, seq: seq} }

// New returns an empty ranked list on the table.
func (t *Table) New() *List {
	l := &List{head: newNode(Item{}, 0, maxLevel), tab: t, id: uint16(len(t.lists)), level: 1}
	t.lists = append(t.lists, l)
	return l
}

// Publish ends the version being written and returns its number: a reader
// of it sees every write made so far, and later writes go to the next.
func (t *Table) Publish() int64 {
	t.seq++
	return t.seq - 1
}

// Sweep unlinks the nodes that published versions removed. The caller
// vouches that no reader of a version older than the last published one
// remains: those are the only readers that see such a node.
func (t *Table) Sweep() {
	k := 0
	for ; k < len(t.dead) && t.dead[k].died.Load() < t.seq; k++ {
		n := t.dead[k]
		t.lists[n.list].unlink(n)
		t.dead[k] = nil
	}
	t.dead = append(t.dead[:0], t.dead[k:]...)
}

// Dead returns how many removed nodes are still linked, waiting for Sweep
// (tests and diagnostics).
func (t *Table) Dead() int { return len(t.dead) }

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

// List is one ranked list RL_i. Its writer methods act on the version
// its table is writing; Snapshot and IterAt read a published one.
type List struct {
	head  *node
	tab   *Table
	id    uint16 // the list's number on tab
	level int    // highest level in use
	size  int    // tuples in the version being written
	// ids is the ID shim's slot assignment, nil until an ID method runs.
	ids *idSlots
}

// New returns an empty standalone ranked list, on a table of its own.
func New() *List { return NewTable(0).New() }

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

// findPredecessors fills pred with, per level, the last node that precedes
// the node of tuple it born in version born.
func (l *List) findPredecessors(it Item, born int64, pred *[maxLevel]*node) {
	x := l.head
	for lv := l.level - 1; lv >= linkLevels; lv-- {
		for {
			nx := (*x.up)[lv-linkLevels]
			if nx == nil || !nx.before(it, born) {
				break
			}
			x = nx
		}
		pred[lv] = x
	}
	for lv := min(l.level, linkLevels) - 1; lv >= 1; lv-- {
		for {
			nx := x.link[lv-1]
			if nx == nil || !nx.before(it, born) {
				break
			}
			x = nx
		}
		pred[lv] = x
	}
	for {
		nx := x.next.Load()
		if nx == nil || !nx.before(it, born) {
			break
		}
		x = nx
	}
	pred[0] = x
}

// node returns the list's live node in cell (s, j), nil when it has none.
func (l *List) node(s stream.Slot, j int) *node {
	if n := l.tab.get(s, j); n != nil && n.list == l.id {
		return n
	}
	return nil
}

// insert links a node born in the version being written for cell (s, j),
// which has none, and enters it in the table. Level 0 is linked first:
// the store that makes the node reachable to readers publishes its fields.
func (l *List) insert(s stream.Slot, j int, item Item) {
	lvl := nodeLevel(item.ID)
	if lvl > l.level {
		l.level = lvl
	}
	born := l.tab.seq
	var pred [maxLevel]*node
	l.findPredecessors(item, born, &pred)
	n := newNode(item, born, lvl)
	n.slot, n.j, n.list = s, uint16(j), l.id
	for lv := 0; lv < lvl; lv++ {
		p := pred[lv]
		if p == nil {
			p = l.head
		}
		n.setNext(lv, p.nextAt(lv))
		p.setNext(lv, n)
	}
	n.prev = pred[0] // the descent starts at the head, so it always sets pred[0]
	if nx := n.next.Load(); nx != nil {
		nx.prev = n
	}
	l.tab.set(s, j, n)
	l.size++
}

// remove takes n out of the version being written. A node born in that
// version no reader can see, so it is unlinked now; any other is marked
// dead and left linked for the readers of older versions until Sweep.
func (l *List) remove(n *node) {
	t := l.tab
	t.set(n.slot, int(n.j), nil)
	l.size--
	if n.born == t.seq {
		l.unlink(n)
		return
	}
	n.died.Store(t.seq)
	t.dead = append(t.dead, n)
}

// unlink splices n out of every level it links. Its predecessor at level
// lv is the last node before it that reaches lv, found by walking back
// from prev: about two steps a level, against a descent's comparisons from
// the top. n keeps its own links, so a reader standing on it walks on into
// the list.
func (l *List) unlink(n *node) {
	p := n.prev
	reach := l.reach(p)
	for lv := range n.level() {
		for reach <= lv {
			p = p.prev
			reach = l.reach(p)
		}
		if p.nextAt(lv) == n {
			p.setNext(lv, n.nextAt(lv))
		}
	}
	if nx := n.next.Load(); nx != nil {
		nx.prev = n.prev
	}
	for l.level > 1 && l.head.nextAt(l.level-1) == nil {
		l.level--
	}
}

// reach returns the number of levels n, a node of the list or its head,
// links.
func (l *List) reach(n *node) int {
	if n == l.head {
		return maxLevel
	}
	return n.level()
}

// UpsertAt inserts or repositions the tuple of the element in slot s,
// whose j-th topic is the list's (Algorithm 1 lines 7 and 11). A tuple
// whose ID and score bits are unchanged keeps its node: nothing is
// written, and no version sees a difference. A changed score gets a new
// node: readers copy a visible tuple whole, so no field of one is written
// in place.
func (l *List) UpsertAt(s stream.Slot, j int, id stream.ElemID, score float64) {
	if n := l.node(s, j); n != nil {
		if n.item.ID == id && math.Float64bits(n.item.Score) == math.Float64bits(score) {
			return
		}
		l.remove(n)
	}
	l.insert(s, j, Item{ID: id, Score: score})
}

// DeleteAt removes the tuple of the element in slot s, whose j-th topic
// is the list's, reporting whether it was present (Algorithm 1 line 13).
func (l *List) DeleteAt(s stream.Slot, j int) bool {
	n := l.node(s, j)
	if n == nil {
		return false
	}
	l.remove(n)
	return true
}

// NodeAt returns a handle on the list's live node in cell (s, j), nil when
// it has none: two handles are equal only for one node (tests and
// diagnostics).
func (l *List) NodeAt(s stream.Slot, j int) any {
	if n := l.node(s, j); n != nil {
		return n
	}
	return nil
}

// GetAt returns the tuple of cell (s, j).
func (l *List) GetAt(s stream.Slot, j int) (Item, bool) {
	if n := l.node(s, j); n != nil {
		return n.item, true
	}
	return Item{}, false
}

// First returns the highest-scored tuple (the RL_i.first operation of §4.1).
func (l *List) First() (Item, bool) { return l.IterAt(l.tab.seq).Next() }

// Iterator walks one version of a list in ranked (descending score) order.
// Any number of iterators may walk published versions while the writer
// writes the next: they pass over the nodes their version does not see.
type Iterator struct {
	cur *node
	seq int64
}

// Iter returns an iterator over the version being written, positioned
// before the first tuple.
func (l *List) Iter() *Iterator { return l.IterAt(l.tab.seq) }

// IterAt returns an iterator over version seq, positioned before the first
// tuple. seq must be the version being written, or a published one whose
// removed nodes the caller keeps Sweep from unlinking while it reads.
func (l *List) IterAt(seq int64) *Iterator { return &Iterator{cur: l.head, seq: seq} }

// Next advances and returns the next tuple (the RL_i.next operation).
func (it *Iterator) Next() (Item, bool) {
	for n := it.cur.next.Load(); n != nil; n = n.next.Load() {
		it.cur = n
		if n.in(it.seq) {
			return n.item, true
		}
	}
	return Item{}, false
}

// Slot returns the slot of the element whose tuple Next last returned.
func (it *Iterator) Slot() stream.Slot { return it.cur.slot }

// Items returns all tuples in ranked order (for tests and diagnostics).
func (l *List) Items() []Item { return l.ItemsAt(l.tab.seq, l.size) }

// ItemsAt returns version seq's tuples in ranked order, sized for n of
// them (IterAt's rule on seq applies).
func (l *List) ItemsAt(seq int64, n int) []Item { return items(l.head, seq, n) }

func items(head *node, seq int64, n int) []Item {
	out := make([]Item, 0, n)
	for it := (Iterator{cur: head, seq: seq}); ; {
		item, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, item)
	}
}

// find walks version seq of the list from head for id's tuple.
func find(head *node, seq int64, id stream.ElemID) (Item, bool) {
	for it := (Iterator{cur: head, seq: seq}); ; {
		item, ok := it.Next()
		if !ok || item.ID == id {
			return item, ok
		}
	}
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
// (Algorithm 1 lines 7 and 11), on a list driven by ID. lastRef is
// ignored: a tuple holds no t_e. The parameter stays only because the
// benchmark module's layer replay (benchmark/layers.go) passes one; it
// goes with the shim.
func (l *List) Upsert(id stream.ElemID, score float64, lastRef stream.Time) {
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
	l.UpsertAt(s, 0, id, score)
}

// Delete removes the tuple for id, reporting whether it was present
// (Algorithm 1 line 13), on a list driven by ID.
func (l *List) Delete(id stream.ElemID) bool {
	ids := l.shim()
	s, ok := ids.slot[id]
	if !ok {
		return false
	}
	delete(ids.slot, id)
	ids.free = append(ids.free, s)
	return l.DeleteAt(s, 0)
}

// Get returns the current tuple for id: through the ID map on a list
// driven by ID, by a walk of the list otherwise (tests and diagnostics).
func (l *List) Get(id stream.ElemID) (Item, bool) {
	if l.ids == nil {
		return find(l.head, l.tab.seq, id)
	}
	if s, ok := l.ids.slot[id]; ok {
		return l.GetAt(s, 0)
	}
	return Item{}, false
}
