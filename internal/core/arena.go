package core

import (
	"sync"
	"unsafe"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// arena is the scratch state of one query: the traversal cursors and
// visited set, MTTD's gain heap and probes, MTTS's sieve array, and the
// candidate sets with their coverage tables. The arenas pool recycles it, so
// a warmed process answers a query without allocating any of it again
// (DESIGN.md §6, "Query evaluation state").
//
// An arena lives strictly inside its query's snapshot pin: it is taken
// after the pin and released — every element reference dropped — before
// the unpin, so pooled arenas never keep an expired element or a recycled
// buffer's state alive.
type arena struct {
	tr traversal
	// buf backs the probes: reset per element by MTTS (one live probe),
	// per query by MTTD (one per buffered element, indexed by gainEntry).
	buf    score.ProbeBuf
	probes []score.Probe
	heap   gainHeap
	// sieves is Φ's candidates by ascending j; spare is the array a δmax
	// re-anchor rebuilds them into before the two swap.
	sieves, spare []sieveCand
	// rejected holds the sieve runs that rejected MTTS's current element,
	// the certificates of mtts's run loop.
	rejected []rejection
	// free holds reset candidate sets ready for reuse; live, the ones
	// handed out since the arena was taken.
	free, live []*score.CandidateSet
}

// arenas recycles arenas across queries and across engines: an arena holds
// nothing of the engine it last served, and one process-wide pool keeps a
// many-stream hub from retaining a warm arena per resident stream (or
// starting cold after every reactivation, which builds a new Engine).
var arenas sync.Pool

// maxArenaBytes caps what a pooled arena may retain. sync.Pool's victim
// cache keeps an idle arena through one GC, so retained scratch shows up in
// the live heap; an arena a heavy query grew past the cap is dropped.
const maxArenaBytes = 384 << 10

func getArena() *arena {
	if a, ok := arenas.Get().(*arena); ok {
		return a
	}
	return new(arena)
}

// putArena resets a and returns it to the pool unless it grew past
// maxArenaBytes.
func putArena(a *arena) {
	a.reset()
	if a.footprint() <= maxArenaBytes {
		arenas.Put(a)
	}
}

// reset empties a in O(what the query touched), dropping every element,
// window and ranked-list reference.
func (a *arena) reset() {
	a.tr.win = nil
	clear(a.tr.iters)
	clear(a.probes)
	clear(a.rejected)
	a.probes, a.heap, a.sieves, a.rejected = a.probes[:0], a.heap[:0], a.sieves[:0], a.rejected[:0]
	a.buf.Reset()
	for _, cs := range a.live {
		cs.Reset(nil, topicmodel.TopicVec{})
		a.free = append(a.free, cs)
	}
	clear(a.live)
	a.live = a.live[:0]
}

// footprint returns the bytes of storage a retains across reset.
func (a *arena) footprint() int {
	tr := &a.tr
	bytes := a.buf.Footprint() + tr.visited.Footprint() +
		cap(tr.topics)*int(unsafe.Sizeof(int32(0))) + cap(tr.weights)*int(unsafe.Sizeof(float64(0))) +
		cap(tr.iters)*int(unsafe.Sizeof(rankedlist.Iterator{})) +
		cap(tr.cur)*int(unsafe.Sizeof(rankedlist.Item{})) + cap(tr.has) +
		cap(a.probes)*int(unsafe.Sizeof(score.Probe{})) + cap(a.heap)*int(unsafe.Sizeof(gainEntry{})) +
		(cap(a.sieves)+cap(a.spare))*int(unsafe.Sizeof(sieveCand{})) +
		cap(a.rejected)*int(unsafe.Sizeof(rejection{})) +
		(cap(a.free)+cap(a.live))*int(unsafe.Sizeof((*score.CandidateSet)(nil)))
	for _, cs := range a.free {
		bytes += cs.Footprint()
	}
	return bytes
}

// newSet hands out an empty candidate set for the query.
func (a *arena) newSet(s *score.Scorer, x topicmodel.TopicVec) *score.CandidateSet {
	var cs *score.CandidateSet
	if n := len(a.free); n > 0 {
		cs, a.free = a.free[n-1], a.free[:n-1]
		cs.Reset(s, x)
	} else {
		cs = score.NewCandidateSet(s, x)
	}
	a.live = append(a.live, cs)
	return cs
}

// result assembles a Result around a copy of S's members (the set's own
// slice goes back to the pool with the arena).
func (a *arena) result(v *view, s *score.CandidateSet, evaluated, gainEvals int) Result {
	res := Result{
		Evaluated:     evaluated,
		GainEvals:     gainEvals,
		Retrieved:     a.tr.retrieved,
		ActiveAtQuery: v.numActive,
		BucketSeq:     v.seq,
	}
	if s != nil {
		res.Elements = append([]*stream.Element(nil), s.Members()...)
		res.Score = s.Value()
	}
	return res
}
