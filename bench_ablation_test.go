// Ablation benchmarks for the design choices DESIGN.md §5 calls out: what
// the ranked-list early termination, the lazy MTTD buffer, and the skip
// list actually buy, measured against the naive alternative on the same
// state and objective.
package ksir_test

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/social-streams/ksir/internal/baselines"
	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// BenchmarkAblationEarlyTermination contrasts MTTS (ranked lists + UB
// cutoff) with the same sieve logic minus the index (SieveStreaming over a
// full scan). The ns/op gap is what the ranked lists buy; the reported
// eval-ratio metric is the Figure 10 story.
func BenchmarkAblationEarlyTermination(b *testing.B) {
	st := microSetup(b, "Twitter")
	b.Run("MTTS-with-index", func(b *testing.B) {
		var evaluated, active int64
		for i := 0; i < b.N; i++ {
			q := st.queries[i%len(st.queries)]
			res, err := st.engine.Query(core.Query{K: 10, X: q.X, Epsilon: 0.1, Algorithm: core.MTTS})
			if err != nil {
				b.Fatal(err)
			}
			evaluated += int64(res.Evaluated)
			active += int64(res.ActiveAtQuery)
		}
		if active > 0 {
			b.ReportMetric(float64(evaluated)/float64(active), "eval-ratio")
		}
	})
	b.Run("Sieve-full-scan", func(b *testing.B) {
		var evaluated, active int64
		for i := 0; i < b.N; i++ {
			q := st.queries[i%len(st.queries)]
			actives := activesOf(st.engine)
			res := baselines.SieveStreaming(st.engine.Scorer(), actives, q.X, 10, 0.1)
			evaluated += int64(res.Evaluated)
			active += int64(len(actives))
		}
		if active > 0 {
			b.ReportMetric(float64(evaluated)/float64(active), "eval-ratio")
		}
	})
}

// BenchmarkAblationLazyBuffer contrasts MTTD's lazy-heap evaluation with a
// plain greedy that recomputes every candidate's marginal gain each round —
// the classic CELF-vs-greedy gap, here on the k-SIR objective.
func BenchmarkAblationLazyBuffer(b *testing.B) {
	st := microSetup(b, "Twitter")
	b.Run("MTTD-lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := st.queries[i%len(st.queries)]
			if _, err := st.engine.Query(core.Query{K: 10, X: q.X, Epsilon: 0.1, Algorithm: core.MTTD}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-recompute-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := st.queries[i%len(st.queries)]
			actives := activesOf(st.engine)
			set := score.NewCandidateSet(st.engine.Scorer(), q.X)
			for set.Len() < 10 {
				var best *stream.Element
				var bestGain float64
				for _, e := range actives {
					if set.Contains(e.ID) {
						continue
					}
					if g := set.MarginalGain(e); g > bestGain {
						best, bestGain = e, g
					}
				}
				if best == nil || bestGain <= 0 {
					break
				}
				set.Add(best)
			}
		}
	})
}

// BenchmarkAblationSkipListVsSortedSlice contrasts the engine's skip-list
// ranked list with a sorted-slice implementation under sliding-window churn
// (delete + reinsert at a new score). The slice wins on small lists but
// degrades linearly; the skip list is what keeps Figure 14's update times
// flat at realistic window sizes.
func BenchmarkAblationSkipListVsSortedSlice(b *testing.B) {
	for _, size := range []int{1000, 10000, 50000} {
		b.Run(sizeName("skiplist", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			l := rankedlist.New()
			for i := 0; i < size; i++ {
				l.Upsert(stream.ElemID(i), rng.Float64(), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Upsert(stream.ElemID(i%size), rng.Float64(), stream.Time(i))
			}
		})
		b.Run(sizeName("sortedslice", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			l := newSliceList()
			for i := 0; i < size; i++ {
				l.upsert(stream.ElemID(i), rng.Float64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.upsert(stream.ElemID(i%size), rng.Float64())
			}
		})
	}
}

func sizeName(kind string, n int) string {
	switch n {
	case 1000:
		return kind + "-1K"
	case 10000:
		return kind + "-10K"
	default:
		return kind + "-50K"
	}
}

func activesOf(g *core.Engine) []*stream.Element {
	out := make([]*stream.Element, 0, g.NumActive())
	g.Window().ForEachActive(func(e *stream.Element) { out = append(out, e) })
	return out
}

// sliceList is the naive ranked-list alternative: a slice kept sorted by
// (score desc, id asc) with binary-search insert and O(n) memmove.
type sliceList struct {
	items []sliceItem
	pos   map[stream.ElemID]int // approximate position hint, rebuilt on use
}

type sliceItem struct {
	id    stream.ElemID
	score float64
}

func newSliceList() *sliceList {
	return &sliceList{pos: make(map[stream.ElemID]int)}
}

func (l *sliceList) upsert(id stream.ElemID, scoreV float64) {
	// Delete existing entry (linear scan fallback when hint is stale).
	if i, ok := l.pos[id]; ok && i < len(l.items) && l.items[i].id == id {
		l.items = append(l.items[:i], l.items[i+1:]...)
	} else {
		for i := range l.items {
			if l.items[i].id == id {
				l.items = append(l.items[:i], l.items[i+1:]...)
				break
			}
		}
	}
	it := sliceItem{id: id, score: scoreV}
	at := sort.Search(len(l.items), func(i int) bool {
		if l.items[i].score != it.score {
			return l.items[i].score < it.score
		}
		return l.items[i].id >= it.id
	})
	l.items = append(l.items, sliceItem{})
	copy(l.items[at+1:], l.items[at:])
	l.items[at] = it
	l.pos[id] = at
}
