// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per table/figure — see DESIGN.md §4), plus per-operation
// micro-benchmarks of the core algorithms.
//
// The experiment benches run the full pipeline at a reduced scale; use
// cmd/ksir-bench for the larger runs recorded in EXPERIMENTS.md:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig9 -benchtime=1x
package ksir_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/baselines"
	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/dataset"
	"github.com/social-streams/ksir/internal/experiments"
)

// benchScale keeps each experiment bench in the low seconds.
var benchScale = experiments.Scale{
	Elements: 2500, Queries: 12, TopicIters: 15, Seed: 42, WindowHours: 24,
}

func benchLab() *experiments.Lab { return experiments.NewLab(benchScale) }

func renderAll(b *testing.B, tables ...*experiments.Table) {
	b.Helper()
	for _, t := range tables {
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3DatasetStats regenerates Table 3 (dataset statistics).
func BenchmarkTable3DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchLab().Table3()
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, t)
	}
}

// BenchmarkTable5UserStudy regenerates Table 5 (simulated user study).
func BenchmarkTable5UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchLab().Table5()
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, t)
	}
}

// BenchmarkTable6Effectiveness regenerates Table 6 (coverage/influence).
func BenchmarkTable6Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchLab().Table6()
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, t)
	}
}

// BenchmarkFig7QueryTimeEps regenerates Figure 7 (query time vs ε).
func BenchmarkFig7QueryTimeEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f7, _, err := benchLab().EpsSweep([]float64{0.1, 0.3, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f7)
	}
}

// BenchmarkFig8ScoreEps regenerates Figure 8 (score vs ε).
func BenchmarkFig8ScoreEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, f8, err := benchLab().EpsSweep([]float64{0.1, 0.3, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f8)
	}
}

// BenchmarkFig9QueryTimeK regenerates Figure 9 (query time vs k, all five
// methods).
func BenchmarkFig9QueryTimeK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f9, _, _, err := benchLab().KSweep([]int{5, 15, 25})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f9...)
	}
}

// BenchmarkFig10EvalRatio regenerates Figure 10 (evaluated-element ratio).
func BenchmarkFig10EvalRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, f10, _, err := benchLab().KSweep([]int{5, 15, 25})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f10...)
	}
}

// BenchmarkFig11ScoreK regenerates Figure 11 (score vs k).
func BenchmarkFig11ScoreK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, f11, err := benchLab().KSweep([]int{5, 15, 25})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f11...)
	}
}

// BenchmarkFig12QueryTimeZ regenerates Figure 12 (query time vs z; retrains
// the topic model per z).
func BenchmarkFig12QueryTimeZ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f12, _, err := benchLab().ZSweep([]int{25, 50})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f12...)
	}
}

// BenchmarkFig13QueryTimeT regenerates Figure 13 (query time vs window
// length T).
func BenchmarkFig13QueryTimeT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f13, _, err := benchLab().TSweep([]float64{12, 24})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f13...)
	}
}

// BenchmarkFig14UpdateTime regenerates Figure 14 (ranked-list update time
// per arriving element, vs z and vs T).
func BenchmarkFig14UpdateTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := benchLab()
		_, f14z, err := lab.ZSweep([]int{25, 50})
		if err != nil {
			b.Fatal(err)
		}
		_, f14t, err := lab.TSweep([]float64{12, 24})
		if err != nil {
			b.Fatal(err)
		}
		renderAll(b, f14z, f14t)
	}
}

// --- per-operation micro-benchmarks on a prepared window state ---

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
