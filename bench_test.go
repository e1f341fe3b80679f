// Per-operation micro-benchmarks of the core algorithms on a prepared
// window state. The paper's tables and figures have one entry point,
// `ksir-bench -exp <name>` (DESIGN.md §4); the service is measured by
// benchmark/.
//
//	go test -bench 'BenchmarkIngest|BenchmarkQuery' -run XXX -benchmem .
package ksir_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/baselines"
	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/dataset"
	"github.com/social-streams/ksir/internal/experiments"
)

// microState is one prepared window state of the micro-benchmarks.
type microState struct {
	env     *experiments.Env
	engine  *core.Engine
	queries []dataset.QuerySpec
}

// microStates holds the states built so far, by corpus name.
var microStates = map[string]*microState{}

// microSetup returns the ~8K-element state of one synthetic corpus (z = 50),
// building it on first use.
func microSetup(b *testing.B, corpus string) *microState {
	b.Helper()
	st := microStates[corpus]
	if st == nil {
		lab := experiments.NewLab(experiments.Scale{
			Elements: 8000, Queries: 32, TopicIters: 20, Seed: 7, WindowHours: 24,
		})
		env, err := lab.Env(corpus, 50)
		if err != nil {
			b.Fatal(err)
		}
		g, err := env.NewEngine(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Replay(g, nil); err != nil {
			b.Fatal(err)
		}
		st = &microState{env: env, engine: g, queries: env.Queries}
		microStates[corpus] = st
	}
	if st.engine.NumActive() == 0 {
		b.Fatal("empty window")
	}
	return st
}

// benchQuery runs one algorithm on two corpora — Twitter's ≈ 5-token posts
// and AMiner's long, citation-heavy documents, the shape of the query-storm
// workload — at the default k = 10, ε = 0.1 and at the heaviest sieve array
// a query may ask for, k = 20, ε = 0.001. Besides time and allocations it
// reports how many marginal gains Δ(e|S) one query computed, the unit of
// work the algorithms differ in, and how many MTTS sieve runs rejected an
// element by certificate instead.
func benchQuery(b *testing.B, alg core.Algorithm) {
	for _, corpus := range []string{"Twitter", "AMiner"} {
		b.Run("corpus="+corpus, func(b *testing.B) {
			for _, shape := range []struct {
				k   int
				eps float64
			}{{10, 0.1}, {20, 0.001}} {
				b.Run(fmt.Sprintf("k=%d,eps=%v", shape.k, shape.eps), func(b *testing.B) {
					st := microSetup(b, corpus)
					b.ReportAllocs()
					b.ResetTimer()
					gainEvals, certified := 0, 0
					for i := 0; i < b.N; i++ {
						q := st.queries[i%len(st.queries)]
						res, err := st.engine.Query(core.Query{K: shape.k, X: q.X, Epsilon: shape.eps, Algorithm: alg})
						if err != nil {
							b.Fatal(err)
						}
						gainEvals += res.GainEvals
						certified += res.Certified
					}
					b.ReportMetric(float64(gainEvals)/float64(b.N), "gainevals/op")
					b.ReportMetric(float64(certified)/float64(b.N), "certified/op")
				})
			}
		})
	}
}

// BenchmarkQueryMTTS measures one MTTS k-SIR query.
func BenchmarkQueryMTTS(b *testing.B) { benchQuery(b, core.MTTS) }

// BenchmarkQueryMTTD measures one MTTD query under the same conditions.
func BenchmarkQueryMTTD(b *testing.B) { benchQuery(b, core.MTTD) }

// BenchmarkQueryTopkRep measures the Top-k Representative baseline.
func BenchmarkQueryTopkRep(b *testing.B) { benchQuery(b, core.TopkRep) }

// BenchmarkQueryCELF measures the CELF baseline (scans every active).
func BenchmarkQueryCELF(b *testing.B) {
	st := microSetup(b, "Twitter")
	b.ReportAllocs()
	b.ResetTimer()
	gainEvals := 0
	for i := 0; i < b.N; i++ {
		q := st.queries[i%len(st.queries)]
		actives := experiments.Actives(st.engine)
		// CELF scores every active once; the rest of Evaluated is lazy
		// re-evaluations of a marginal gain.
		gainEvals += baselines.CELF(st.engine.Scorer(), actives, q.X, 10).Evaluated - len(actives)
	}
	b.ReportMetric(float64(gainEvals)/float64(b.N), "gainevals/op")
}

// BenchmarkQuerySieve measures the SieveStreaming baseline.
func BenchmarkQuerySieve(b *testing.B) {
	st := microSetup(b, "Twitter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := st.queries[i%len(st.queries)]
		actives := experiments.Actives(st.engine)
		baselines.SieveStreaming(st.engine.Scorer(), actives, q.X, 10, 0.1)
	}
}

// BenchmarkIngest measures ranked-list maintenance per arriving element
// (the Figure 14 metric) by replaying a fresh stream each iteration.
func BenchmarkIngest(b *testing.B) {
	st := microSetup(b, "Twitter")
	b.ReportAllocs()
	b.ResetTimer()
	var total time.Duration
	var elements int64
	for i := 0; i < b.N; i++ {
		g, err := st.env.NewEngine(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.env.Replay(g, nil); err != nil {
			b.Fatal(err)
		}
		st := g.Stats()
		total += st.UpdateTime
		elements += st.ElementsIngested
	}
	b.StopTimer()
	if elements > 0 {
		b.ReportMetric(float64(total.Nanoseconds())/float64(elements), "ns/element")
	}
}
