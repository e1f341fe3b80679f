package core

import (
	"github.com/social-streams/ksir/internal/flat"
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// traversal implements the ranked-list traversal of §4.1: it walks the lists
// of every topic the query has mass on, in decreasing order of topic-wise
// score, yielding each element at most once (visited marking) and exposing
// the upper-bound score UB(x) = Σ_i x_i·δ_i(e^(i)) of all unvisited
// elements.
//
// The list tuples hold δ values that are exact except for influence lost to
// children that expired after the last rescore; those stale values can only
// overestimate, so UB(x) remains a valid upper bound (which is all the
// algorithms need) while per-element evaluation always recomputes the exact
// current score.
type traversal struct {
	win     stream.View
	topics  []int32   // query topics with x_i > 0
	weights []float64 // corresponding x_i
	iters   []rankedlist.Iterator
	cur     []rankedlist.Item
	has     []bool
	visited flat.Table // set of visited element IDs
	// retrieved counts tuples pulled off the lists (Fig 10 bookkeeping).
	retrieved int
}

// newTraversal positions a traversal over the engine's current published
// snapshot (tests and diagnostics only — queries go through Engine.Query,
// which pins the snapshot for the traversal's lifetime).
func newTraversal(g *Engine, x topicmodel.TopicVec) *traversal {
	tr := new(traversal)
	tr.start(g.front.Load().view(), x)
	return tr
}

// start positions the traversal at the head of each relevant list of one
// immutable snapshot view (the RL_i.first calls of Algorithms 2 and 3,
// line 2), reusing whatever storage an earlier query left in it.
func (tr *traversal) start(v *view, x topicmodel.TopicVec) {
	tr.win, tr.retrieved = v.sc.Window(), 0
	tr.topics, tr.weights = tr.topics[:0], tr.weights[:0]
	tr.iters, tr.cur, tr.has = tr.iters[:0], tr.cur[:0], tr.has[:0]
	tr.visited.Reset(false)
	for i, topic := range x.Topics {
		if x.Probs[i] <= 0 {
			continue
		}
		tr.topics = append(tr.topics, topic)
		tr.weights = append(tr.weights, x.Probs[i])
		tr.iters = append(tr.iters, *v.lists[topic].IterAt(v.seq))
		tr.cur = append(tr.cur, rankedlist.Item{})
		tr.has = append(tr.has, false)
	}
	for i := range tr.iters {
		tr.advance(i)
	}
}

// advance moves list i's cursor to its next unvisited tuple.
func (tr *traversal) advance(i int) {
	for {
		item, ok := tr.iters[i].Next()
		if !ok {
			tr.has[i] = false
			return
		}
		tr.retrieved++
		if tr.visited.Find(int64(item.ID), 0) >= 0 {
			continue
		}
		tr.cur[i] = item
		tr.has[i] = true
		return
	}
}

// skipVisited re-validates all cursors after new visited marks.
func (tr *traversal) skipVisited() {
	for i := range tr.cur {
		if !tr.has[i] {
			continue
		}
		if tr.visited.Find(int64(tr.cur[i].ID), 0) >= 0 {
			tr.advance(i)
		}
	}
}

// ub returns UB(x), the upper bound on δ(e, x) of any unvisited element.
// It is 0 when every list is exhausted.
func (tr *traversal) ub() float64 {
	tr.skipVisited()
	var s float64
	for i := range tr.cur {
		if tr.has[i] {
			s += tr.weights[i] * tr.cur[i].Score
		}
	}
	return s
}

// exhausted reports whether all lists have run out of unvisited tuples.
func (tr *traversal) exhausted() bool {
	tr.skipVisited()
	for i := range tr.has {
		if tr.has[i] {
			return false
		}
	}
	return true
}

// pop removes and returns the element e^(i*) with the maximum
// x_i·δ_i(e^(i)) across the cursors, and its slot, marking it visited
// everywhere (Algorithm 2 line 5 / Algorithm 3 line 16). The snapshot's
// window and list version are of the same bucket boundary, so the slot a
// tuple names holds its element.
func (tr *traversal) pop() (*stream.Element, stream.Slot, bool) {
	tr.skipVisited()
	best := -1
	var bestVal float64
	for i := range tr.cur {
		if !tr.has[i] {
			continue
		}
		if v := tr.weights[i] * tr.cur[i].Score; best == -1 || v > bestVal {
			best, bestVal = i, v
		}
	}
	if best == -1 {
		return nil, 0, false
	}
	id, s := tr.cur[best].ID, tr.iters[best].Slot()
	tr.visited.Insert(int64(id), 0)
	tr.advance(best)
	e := tr.win.At(s)
	if e == nil || e.ID != id {
		// The snapshot's lists never hold inactive elements; treat a miss
		// as exhaustion of this tuple.
		return tr.pop()
	}
	return e, s, true
}
