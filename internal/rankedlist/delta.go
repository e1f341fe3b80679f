package rankedlist

import "github.com/social-streams/ksir/internal/stream"

// OpKind classifies one recorded ranked-list mutation.
type OpKind uint8

const (
	// OpInsert adds a tuple for an element the list did not contain.
	OpInsert OpKind = iota
	// OpRescore repositions an existing tuple whose score changed.
	OpRescore
	// OpTouch updates LastRef on an existing tuple whose score (and
	// therefore position) is unchanged.
	OpTouch
	// OpDelete removes the element's tuple (the Item fields other than ID
	// are not meaningful).
	OpDelete
)

// hintLevels is how many skip-list levels an Op records predecessor hints
// for. Node levels are geometric (p=1/2), so 6 levels cover 98.4% of
// nodes with O(1) replay splices; taller nodes fall back to the normal
// O(log n) descent. (At 3 levels, 87.5%, the descents of the rest cost
// replay about 8% more on BenchmarkIngest.)
const hintLevels = 6

// cell names a node by its place in the node table: the element's slot
// and the list's topic position in the element's topics.
type cell struct {
	s stream.Slot
	j uint16
}

// posHint records where an op happened: the cells of the node's
// predecessors at levels 0..level-1 when level ≤ hintLevels (head bit set
// when the predecessor is the list head). A replica that is
// tuple-identical to the recording list at replay time, with the same
// slots, has the same neighborhood, so Apply can splice without
// searching; every hint is verified against the local list first and
// falls back to a full descent if it does not hold.
type posHint struct {
	prevs [hintLevels]cell
	heads uint8 // bit lv set ⇒ level-lv predecessor is the head
	ok    bool  // node level ≤ hintLevels and hints recorded
}

// Op is one recorded ranked-list mutation: the structural outcome of an
// UpsertAt or DeleteAt — final tuple, op kind and position hints —
// sufficient to replay the same mutation onto a replica list without
// recomputing the score that produced it.
type Op struct {
	Kind OpKind
	Item Item
	// c is the affected node's cell.
	c cell
	// at is the position of the affected node: the insert position for
	// OpInsert/OpRescore, the removed node's position for OpDelete.
	at posHint
	// from is the removed (old) position of an OpRescore.
	from posHint
}

// hintOf packs the predecessors findPredecessors filled for a node of
// level lvl.
func (l *List) hintOf(pred *[maxLevel]*node, lvl int) posHint {
	if lvl > hintLevels {
		return posHint{}
	}
	h := posHint{ok: true}
	for lv := 0; lv < lvl; lv++ {
		p := pred[lv]
		if p == nil || p == l.head {
			h.heads |= 1 << lv
			continue
		}
		h.prevs[lv] = cell{p.slot, p.j}
	}
	return h
}

// resolve maps a hint back to predecessor nodes on this list, verifying
// that each predecessor still exists, reaches the level, and brackets
// item there. It reports ok=false when anything fails, in which case the
// caller must fall back to a full descent (and must not have mutated).
func (l *List) resolve(h posHint, lvl int, item Item, preds *[hintLevels]*node) bool {
	if !h.ok {
		return false
	}
	for lv := 0; lv < lvl; lv++ {
		var p *node
		if h.heads&(1<<lv) != 0 {
			p = l.head
		} else if p = l.node(h.prevs[lv].s, int(h.prevs[lv].j)); p == nil || !less(p.item, item) {
			return false
		}
		if p != l.head && p.level() <= lv {
			return false
		}
		preds[lv] = p
	}
	return true
}

// UpsertAt inserts or repositions the tuple of the element in slot s,
// whose j-th topic is the list's, and returns the structural Op it
// performed, for replay onto a replica via Apply.
func (l *List) UpsertAt(s stream.Slot, j int, id stream.ElemID, score float64, lastRef stream.Time) Op {
	l.mustBeThawed()
	item := Item{ID: id, Score: score, LastRef: lastRef}
	c := cell{s, uint16(j)}
	if n := l.node(s, j); n != nil {
		if n.item.Score == score {
			n.item.LastRef = lastRef // position unchanged
			return Op{Kind: OpTouch, Item: item, c: c}
		}
		op := Op{Kind: OpRescore, Item: item, c: c}
		var pred [maxLevel]*node
		l.findPredecessors(n.item, &pred)
		op.from = l.hintOf(&pred, n.level())
		l.unlink(n, &pred)
		op.at = l.insert(s, j, item)
		return op
	}
	return Op{Kind: OpInsert, Item: item, c: c, at: l.insert(s, j, item)}
}

// DeleteAt removes the tuple of the element in slot s, whose j-th topic
// is the list's, and returns the structural Op it performed; ok reports
// whether the tuple was present.
func (l *List) DeleteAt(s stream.Slot, j int) (Op, bool) {
	l.mustBeThawed()
	n := l.node(s, j)
	if n == nil {
		return Op{}, false
	}
	var pred [maxLevel]*node
	l.findPredecessors(n.item, &pred)
	op := Op{Kind: OpDelete, Item: Item{ID: n.item.ID}, c: cell{s, uint16(j)}, at: l.hintOf(&pred, n.level())}
	l.unlink(n, &pred)
	return op, true
}

// ApplyDelta replays recorded ops, in order, onto this list. When the
// list's tuples and slots are identical to the recording list's at each
// op (the engine's delta-replay contract: the replica is one bucket behind
// and replays that bucket's full op sequence), the result is
// tuple-identical to the recording list — scores are spliced verbatim,
// never recomputed.
//
// Fast paths: OpTouch is O(1) (a table lookup); an insert, delete or
// rescore of a node no taller than hintLevels splices in O(1) at the
// recorded predecessors. Everything else — and any op whose hint fails
// verification — takes the normal O(log n) skip-list path.
func (l *List) ApplyDelta(ops []Op) {
	if len(ops) == 0 {
		return
	}
	l.mustBeThawed()
	for i := range ops {
		l.applyOp(&ops[i])
	}
}

// Apply replays one recorded op (see ApplyDelta). The op is read, never
// retained.
func (l *List) Apply(op *Op) {
	l.mustBeThawed()
	l.applyOp(op)
}

func (l *List) applyOp(op *Op) {
	s, j, it := op.c.s, int(op.c.j), op.Item
	switch op.Kind {
	case OpTouch:
		if n := l.node(s, j); n != nil && n.item.Score == it.Score {
			n.item.LastRef = it.LastRef
			return
		}
		l.UpsertAt(s, j, it.ID, it.Score, it.LastRef)
	case OpInsert:
		// No duplicate pre-check: under the replay contract the cell is
		// empty (the recording list inserted it), and an identical stray
		// tuple cannot pass the splice's bracket verification.
		if l.spliceHinted(s, j, it, op.at) {
			return
		}
		l.UpsertAt(s, j, it.ID, it.Score, it.LastRef)
	case OpRescore:
		if n := l.node(s, j); n != nil && l.unlinkHinted(n, op.from) {
			if l.spliceHinted(s, j, it, op.at) {
				return
			}
			l.insert(s, j, it) // unlinked already; finish with a descent
			return
		}
		l.UpsertAt(s, j, it.ID, it.Score, it.LastRef)
	case OpDelete:
		if n := l.node(s, j); n != nil {
			if l.unlinkHinted(n, op.at) {
				return
			}
			l.remove(n)
		}
	}
}

// spliceHinted inserts a fresh node for cell (s, j) at the recorded
// predecessors, reporting whether the O(1) splice happened. It verifies
// the full neighborhood before mutating anything.
func (l *List) spliceHinted(s stream.Slot, j int, item Item, h posHint) bool {
	lvl := nodeLevel(item.ID)
	if lvl > hintLevels {
		return false
	}
	var preds [hintLevels]*node
	if !l.resolve(h, lvl, item, &preds) {
		return false
	}
	for lv := 0; lv < lvl; lv++ {
		if nxt := preds[lv].next(lv); nxt != nil && !less(item, nxt.item) {
			return false
		}
	}
	n := l.newNode(s, j, item, lvl)
	for lv := 0; lv < lvl; lv++ {
		n.setNext(lv, preds[lv].next(lv))
		preds[lv].setNext(lv, n)
	}
	if lvl > l.level {
		l.level = lvl
	}
	l.size++
	return true
}

// unlinkHinted splices n out at the recorded predecessors, reporting
// whether the O(1) unlink happened. It verifies every level points at n
// before mutating anything.
func (l *List) unlinkHinted(n *node, h posHint) bool {
	lvl := n.level()
	if lvl > hintLevels {
		return false
	}
	var preds [hintLevels]*node
	if !l.resolve(h, lvl, n.item, &preds) {
		return false
	}
	for lv := 0; lv < lvl; lv++ {
		if preds[lv].next(lv) != n {
			return false
		}
	}
	for lv := 0; lv < lvl; lv++ {
		preds[lv].setNext(lv, n.next(lv))
	}
	l.dropped(n)
	return true
}
