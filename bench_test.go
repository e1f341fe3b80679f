// Per-operation micro-benchmarks of the core algorithms on a prepared
// window state. The paper's tables and figures have one entry point,
// `ksir-bench -exp <name>` (DESIGN.md §4); the service is measured by
// benchmark/.
//
//	go test -bench 'BenchmarkIngest|BenchmarkQuery' -run XXX -benchmem .
package ksir_test

import (
	"sync"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/baselines"
	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/dataset"
	"github.com/social-streams/ksir/internal/experiments"
)

var microOnce sync.Once
var microEnv *experiments.Env
var microEngine *core.Engine
var microQueries []dataset.QuerySpec

func microSetup(b *testing.B) {
	b.Helper()
	microOnce.Do(func() {
		lab := experiments.NewLab(experiments.Scale{
			Elements: 8000, Queries: 32, TopicIters: 20, Seed: 7, WindowHours: 24,
		})
		env, err := lab.Env("Twitter", 50)
		if err != nil {
			panic(err)
		}
		g, err := env.NewEngine(0)
		if err != nil {
			panic(err)
		}
		if err := env.Replay(g, nil); err != nil {
			panic(err)
		}
		microEnv, microEngine, microQueries = env, g, env.Queries
	})
	if microEngine.NumActive() == 0 {
		b.Fatal("empty window")
	}
}

// benchQuery reports, besides time and allocations, how many marginal gains
// Δ(e|S) one query computed — the unit of work the algorithms differ in.
func benchQuery(b *testing.B, alg core.Algorithm) {
	microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	gainEvals := 0
	for i := 0; i < b.N; i++ {
		q := microQueries[i%len(microQueries)]
		res, err := microEngine.Query(core.Query{K: 10, X: q.X, Epsilon: 0.1, Algorithm: alg})
		if err != nil {
			b.Fatal(err)
		}
		gainEvals += res.GainEvals
	}
	b.ReportMetric(float64(gainEvals)/float64(b.N), "gainevals/op")
}

// BenchmarkQueryMTTS measures one MTTS k-SIR query on a ~8K-element stream
// state (k=10, ε=0.1, z=50).
func BenchmarkQueryMTTS(b *testing.B) { benchQuery(b, core.MTTS) }

// BenchmarkQueryMTTD measures one MTTD query under the same conditions.
func BenchmarkQueryMTTD(b *testing.B) { benchQuery(b, core.MTTD) }

// BenchmarkQueryTopkRep measures the Top-k Representative baseline.
func BenchmarkQueryTopkRep(b *testing.B) { benchQuery(b, core.TopkRep) }

// BenchmarkQueryCELF measures the CELF baseline (scans every active).
func BenchmarkQueryCELF(b *testing.B) {
	microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	gainEvals := 0
	for i := 0; i < b.N; i++ {
		q := microQueries[i%len(microQueries)]
		actives := experiments.Actives(microEngine)
		// CELF scores every active once; the rest of Evaluated is lazy
		// re-evaluations of a marginal gain.
		gainEvals += baselines.CELF(microEngine.Scorer(), actives, q.X, 10).Evaluated - len(actives)
	}
	b.ReportMetric(float64(gainEvals)/float64(b.N), "gainevals/op")
}

// BenchmarkQuerySieve measures the SieveStreaming baseline.
func BenchmarkQuerySieve(b *testing.B) {
	microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := microQueries[i%len(microQueries)]
		actives := experiments.Actives(microEngine)
		baselines.SieveStreaming(microEngine.Scorer(), actives, q.X, 10, 0.1)
	}
}

// BenchmarkIngest measures ranked-list maintenance per arriving element
// (the Figure 14 metric) by replaying a fresh stream each iteration.
func BenchmarkIngest(b *testing.B) {
	microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var total time.Duration
	var elements int64
	for i := 0; i < b.N; i++ {
		g, err := microEnv.NewEngine(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := microEnv.Replay(g, nil); err != nil {
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
