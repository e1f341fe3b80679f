package rankedlist

import "github.com/social-streams/ksir/internal/stream"

// OpKind classifies one recorded ranked-list mutation.
type OpKind uint8

const (
	// OpInsert adds a tuple for an ID the list did not contain.
	OpInsert OpKind = iota
	// OpRescore repositions an existing tuple whose score changed.
	OpRescore
	// OpTouch updates LastRef on an existing tuple whose score (and
	// therefore position) is unchanged.
	OpTouch
	// OpDelete removes the tuple for Item.ID (the other Item fields are
	// not meaningful).
	OpDelete
)

// hintLevels is how many skip-list levels an Op records predecessor hints
// for. Node levels are geometric (p=1/2), so 3 levels cover 87.5% of
// nodes with O(1) replay splices; taller nodes fall back to the normal
// O(log n) descent.
const hintLevels = 3

// posHint records where an op happened: the IDs of the node's
// predecessors at levels 0..level-1 when level ≤ hintLevels (head bit set
// when the predecessor is the list head). A replica that is
// tuple-identical to the recording list at replay time has the same
// neighborhood, so ApplyDelta can splice without searching; every hint is
// verified against the local list first and falls back to a full descent
// if it does not hold.
type posHint struct {
	prevs [hintLevels]stream.ElemID
	heads uint8 // bit lv set ⇒ level-lv predecessor is the head
	ok    bool  // node level ≤ hintLevels and hints recorded
}

// Op is one recorded ranked-list mutation: the structural outcome of an
// Upsert or Delete — final tuple, op kind and position hints — sufficient
// to replay the same mutation onto a replica list without recomputing the
// score that produced it.
type Op struct {
	Kind OpKind
	Item Item
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
		h.prevs[lv] = p.item.ID
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
		} else if p = l.index[h.prevs[lv]]; p == nil || !less(p.item, item) {
			return false
		}
		if len(p.next) <= lv {
			return false
		}
		preds[lv] = p
	}
	return true
}

// UpsertRecorded is Upsert returning the structural Op it performed, for
// replay onto a replica via ApplyDelta.
func (l *List) UpsertRecorded(id stream.ElemID, score float64, lastRef stream.Time) Op {
	l.mustBeThawed()
	item := Item{ID: id, Score: score, LastRef: lastRef}
	if n, ok := l.index[id]; ok {
		if n.item.Score == score {
			n.item.LastRef = lastRef // position unchanged
			return Op{Kind: OpTouch, Item: item}
		}
		op := Op{Kind: OpRescore, Item: item}
		var pred [maxLevel]*node
		l.findPredecessors(n.item, &pred)
		op.from = l.hintOf(&pred, len(n.next))
		l.unlink(n, &pred)
		op.at = l.insert(item)
		return op
	}
	return Op{Kind: OpInsert, Item: item, at: l.insert(item)}
}

// DeleteRecorded is Delete returning the structural Op it performed; ok
// reports whether the tuple was present.
func (l *List) DeleteRecorded(id stream.ElemID) (Op, bool) {
	l.mustBeThawed()
	n, ok := l.index[id]
	if !ok {
		return Op{}, false
	}
	var pred [maxLevel]*node
	l.findPredecessors(n.item, &pred)
	op := Op{Kind: OpDelete, Item: Item{ID: id}, at: l.hintOf(&pred, len(n.next))}
	l.unlink(n, &pred)
	return op, true
}

// ApplyDelta replays recorded ops, in order, onto this list. When the
// list's tuples are identical to the recording list's at each op (the
// engine's delta-replay contract: the replica is one bucket behind and
// replays that bucket's full op sequence), the result is tuple-identical
// to the recording list — scores are spliced verbatim, never recomputed.
//
// Fast paths: OpTouch is O(1) (index lookup); an insert, delete or
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
	switch op.Kind {
	case OpTouch:
		if n, ok := l.index[op.Item.ID]; ok && n.item.Score == op.Item.Score {
			n.item.LastRef = op.Item.LastRef
			return
		}
		l.Upsert(op.Item.ID, op.Item.Score, op.Item.LastRef)
	case OpInsert:
		// No duplicate pre-check: under the replay contract the ID is
		// absent (the recording list inserted it), and an identical stray
		// tuple cannot pass the splice's bracket verification.
		if l.spliceHinted(op.Item, op.at) {
			return
		}
		l.Upsert(op.Item.ID, op.Item.Score, op.Item.LastRef)
	case OpRescore:
		if n, ok := l.index[op.Item.ID]; ok && l.unlinkHinted(n, op.from) {
			if l.spliceHinted(op.Item, op.at) {
				return
			}
			l.insert(op.Item) // unlinked already; finish with a descent
			return
		}
		l.Upsert(op.Item.ID, op.Item.Score, op.Item.LastRef)
	case OpDelete:
		if n, ok := l.index[op.Item.ID]; ok {
			if l.unlinkHinted(n, op.at) {
				return
			}
			l.remove(n)
		}
	}
}

// spliceHinted inserts a fresh node for item at the recorded
// predecessors, reporting whether the O(1) splice happened. It verifies
// the full neighborhood before mutating anything.
func (l *List) spliceHinted(item Item, h posHint) bool {
	lvl := nodeLevel(item.ID)
	if lvl > hintLevels {
		return false
	}
	var preds [hintLevels]*node
	if !l.resolve(h, lvl, item, &preds) {
		return false
	}
	for lv := 0; lv < lvl; lv++ {
		if nxt := preds[lv].next[lv]; nxt != nil && !less(item, nxt.item) {
			return false
		}
	}
	n := newNode(item, lvl)
	for lv := 0; lv < lvl; lv++ {
		n.next[lv] = preds[lv].next[lv]
		preds[lv].next[lv] = n
	}
	if lvl > l.level {
		l.level = lvl
	}
	l.index[item.ID] = n
	l.size++
	return true
}

// unlinkHinted splices n out at the recorded predecessors, reporting
// whether the O(1) unlink happened. It verifies every level points at n
// before mutating anything.
func (l *List) unlinkHinted(n *node, h posHint) bool {
	lvl := len(n.next)
	if lvl > hintLevels {
		return false
	}
	var preds [hintLevels]*node
	if !l.resolve(h, lvl, n.item, &preds) {
		return false
	}
	for lv := 0; lv < lvl; lv++ {
		if preds[lv].next[lv] != n {
			return false
		}
	}
	for lv := 0; lv < lvl; lv++ {
		preds[lv].next[lv] = n.next[lv]
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	delete(l.index, n.item.ID)
	l.size--
	return true
}
