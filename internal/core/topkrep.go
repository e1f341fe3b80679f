package core

import (
	"container/heap"
	"context"

	"github.com/social-streams/ksir/internal/stream"
)

// topkRep implements the Top-k Representative baseline of §5.3: the k
// elements with the highest individual scores δ(e, x), retrieved from the
// ranked lists with threshold-algorithm early termination. It ignores word
// and influence overlaps, so as a k-SIR answer it is only 1/k-approximate —
// the experiments use it to show that classic top-k processing is not
// enough for representativeness.
func (v *view) topkRep(ctx context.Context, q Query, a *arena) (Result, error) {
	tr := &a.tr
	tr.start(v, q.X)
	top := &minScoreHeap{}
	evaluated := 0

	for {
		if evaluated%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		// Threshold-algorithm stop: once the k-th best exact score reaches
		// the upper bound of everything unseen, the top-k is final.
		if top.Len() == q.K && (*top)[0].score >= tr.ub() {
			break
		}
		e, ok := tr.pop()
		if !ok {
			break
		}
		delta := v.scorer.Score(e, q.X)
		evaluated++
		if top.Len() < q.K {
			heap.Push(top, scoredElem{e, delta})
		} else if delta > (*top)[0].score {
			(*top)[0] = scoredElem{e, delta}
			heap.Fix(top, 0)
		}
	}

	// Emit in descending score order and measure the true set score.
	members := make([]*stream.Element, top.Len())
	for i := top.Len() - 1; i >= 0; i-- {
		members[i] = heap.Pop(top).(scoredElem).elem
	}
	set := a.newSet(v.scorer, q.X)
	for _, e := range members {
		set.Add(e)
	}
	res := a.result(v, nil, evaluated, 0)
	res.Elements, res.Score = members, set.Value()
	return res, nil
}

type scoredElem struct {
	elem  *stream.Element
	score float64
}

// minScoreHeap keeps the current top-k with the worst at the root.
type minScoreHeap []scoredElem

func (h minScoreHeap) Len() int { return len(h) }
func (h minScoreHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].elem.ID > h[j].elem.ID
}
func (h minScoreHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minScoreHeap) Push(x interface{}) { *h = append(*h, x.(scoredElem)) }
func (h *minScoreHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
