package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// skewedEngine builds the regime §4 describes: many topics, each element on
// 1–2 topics, scores highly skewed. The ranked-list pruning should then
// evaluate only a small fraction of the active elements for a single-topic
// query.
func skewedEngine(t *testing.T, n int) (*Engine, topicmodel.TopicVec) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	const z, v = 20, 200
	m := &topicmodel.Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
	for i := 0; i < z; i++ {
		// Each topic concentrated on its own 10-word slice.
		var sum float64
		for w := 0; w < v; w++ {
			p := 0.001
			if w >= i*10 && w < (i+1)*10 {
				p = 1
			}
			m.Phi[i*v+w] = p
			sum += p
		}
		for w := 0; w < v; w++ {
			m.Phi[i*v+w] /= sum
		}
		m.PTopic[i] = 1.0 / z
	}
	g, err := NewEngine(Config{
		Model:        m,
		WindowLength: stream.Time(n + 1),
		Params:       score.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		topic := rng.Intn(z)
		nw := 2 + rng.Intn(4)
		ids := make([]textproc.WordID, nw)
		for j := range ids {
			ids[j] = textproc.WordID(topic*10 + rng.Intn(10))
		}
		e := &stream.Element{
			ID:     stream.ElemID(i + 1),
			TS:     stream.Time(i + 1),
			Doc:    textproc.NewDocument(ids),
			Topics: topicmodel.TopicVec{Topics: []int32{int32(topic)}, Probs: []float64{1}},
		}
		if err := g.Ingest(e.TS, []*stream.Element{e}); err != nil {
			t.Fatal(err)
		}
	}
	// Query concentrated on topic 0.
	x := topicmodel.TopicVec{Topics: []int32{0, 1}, Probs: []float64{0.9, 0.1}}
	return g, x
}

func TestMTTSPrunesMostEvaluations(t *testing.T) {
	const n = 2000
	g, x := skewedEngine(t, n)
	res, err := g.Query(Query{K: 5, X: x, Epsilon: 0.1, Algorithm: MTTS})
	if err != nil {
		t.Fatal(err)
	}
	// MTTS's winning sieve candidate may legitimately hold fewer than k
	// elements (Theorem 4.2, case 2); it must still return a useful set.
	if len(res.Elements) < 3 {
		t.Fatalf("result size = %d, want ≥ 3", len(res.Elements))
	}
	ratio := float64(res.Evaluated) / float64(res.ActiveAtQuery)
	// The paper reports ≥98% pruning (Figure 10); on this sharply skewed
	// instance we should easily evaluate under 30% of actives.
	if ratio > 0.3 {
		t.Errorf("MTTS evaluated %.1f%% of actives; pruning ineffective", ratio*100)
	}
	// Every result element should be on the query's dominant topics.
	for _, e := range res.Elements {
		if e.Topics.Topics[0] > 1 {
			t.Errorf("result element e%d is on topic %d", e.ID, e.Topics.Topics[0])
		}
	}
}

func TestMTTDPrunesMostEvaluations(t *testing.T) {
	const n = 2000
	g, x := skewedEngine(t, n)
	res, err := g.Query(Query{K: 5, X: x, Epsilon: 0.1, Algorithm: MTTD})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Evaluated) / float64(res.ActiveAtQuery)
	if ratio > 0.3 {
		t.Errorf("MTTD evaluated %.1f%% of actives; pruning ineffective", ratio*100)
	}
}

// MTTS must never evaluate one element twice (its defining property vs
// MTTD): Evaluated ≤ number of distinct elements retrieved.
func TestMTTSEvaluatesEachElementOnce(t *testing.T) {
	g, x := skewedEngine(t, 500)
	res, err := g.Query(Query{K: 5, X: x, Epsilon: 0.2, Algorithm: MTTS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated > res.ActiveAtQuery {
		t.Errorf("MTTS evaluated %d > %d active elements", res.Evaluated, res.ActiveAtQuery)
	}
}

// TestConcurrentQueries runs differently shaped queries from many goroutines
// at once. They all draw their scratch arenas from one pool, so an arena
// serves an MTTS query with k = 8, then an MTTD query with k = 2, then a
// TopkRep one, on whichever goroutine picks it up; every answer must still
// be identical — IDs, score bits, counters — to the one a serial run gave.
func TestConcurrentQueries(t *testing.T) {
	g, x := skewedEngine(t, 300)
	single := topicmodel.TopicVec{Topics: []int32{3}, Probs: []float64{1}}
	var queries []Query
	for _, alg := range []Algorithm{MTTS, MTTD, TopkRep} {
		for _, k := range []int{2, 4, 8} {
			for _, eps := range []float64{0.1, 0.4} {
				queries = append(queries,
					Query{K: k, X: x, Epsilon: eps, Algorithm: alg},
					Query{K: k, X: single, Epsilon: eps, Algorithm: alg})
			}
		}
	}
	serial := make([]resultKey, len(queries))
	for i, q := range queries {
		res, err := g.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Elements) == 0 || res.Score <= 0 {
			t.Fatalf("serial query %d returned %d elements, score %v", i, len(res.Elements), res.Score)
		}
		serial[i] = keyOf(res)
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range queries {
					i := (j*7 + w*5 + r) % len(queries) // each goroutine its own order
					res, err := g.Query(queries[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got := keyOf(res); got != serial[i] {
						t.Errorf("goroutine %d: query %d answered %+v, serial run %+v", w, i, got, serial[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
