package core

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/textproc"
)

// A warmed engine answers MTTS and MTTD at k = 10 from its pooled arena:
// what still allocates is the result slice and the per-query view, with a
// little headroom for a pool miss after a GC. The bound is the point of the
// flat evaluation state — the map-based one allocated ~1 600 times here.
func TestQueryAllocationsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, xs := goldenEngine(t)
	for _, alg := range []Algorithm{MTTS, MTTD} {
		for qi, x := range xs {
			q := Query{K: 10, X: x, Epsilon: 0.1, Algorithm: alg}
			if _, err := g.Query(q); err != nil { // warm the pool
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := g.Query(q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 16 {
				t.Errorf("%s query %d: %.1f allocations per run, want ≤ 16", alg, qi, allocs)
			}
		}
	}
}

// The write-side twin: in steady state (window full, every bucket expiring
// as many elements as it admits) a 25-element bucket of the golden stream
// costs a bounded number of allocations — the window's changeset, the
// scorer's σ caches (one allocation an element), list nodes, one snapshot:
// 217 as measured. While an element's σ cache was a struct, a header array,
// a row per topic and a total slice, it read 333; while a reference that
// moved only t_e replaced the parent's node in every list, 411. With a
// second copy of the window and the scorer, caught up by replaying a
// recorded window and cache delta, it read 421; with a second copy of every
// list too, caught up by replaying recorded list ops, 440; before elements
// had slots, 604: the ID maps of the lists, the scorer and the window grew,
// and every bucket made an updated map, an inserted map and the
// validation's ID map. The per-bucket fan-out this pins the absence of (op
// lists per shard, an expired-ID map, and a channel, wait group, closures
// and goroutines for apply and again for replay) read 618 with one shard
// and 631 with two.
//
// AllocsPerRun counts the whole process's mallocs, and a GC cycle during
// the measured runs adds the runtime's own: up to 12 in a process's first
// cycle, 0 or 1 in a later one, enough to lift the floored per-run mean by
// one (333 read 334 in about one run of thirty). The collector is off while
// the runs are measured, so the count is the ingest's alone.
func TestIngestAllocationsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	g, buckets, _ := goldenStream(t)
	const runs = 19
	warm := len(buckets) - (runs + 1) // AllocsPerRun calls f once more to warm up
	for _, b := range buckets[:warm] {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(runs, func() {
		b := buckets[next]
		next++
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 217 {
		t.Errorf("%.1f allocations per bucket, want ≤ 217", allocs)
	}
}

// Evaluated counts distinct elements scored (Figure 10's numerator), so it
// can exceed neither the descent depth nor the active set; the marginal-gain
// computations are carried separately in GainEvals, and MTTS's rejections by
// certificate, which compute none, in Certified.
func TestEvaluatedCountsDistinctElements(t *testing.T) {
	g, xs := goldenEngine(t)
	for _, alg := range []Algorithm{MTTS, MTTD, TopkRep} {
		for qi, x := range xs {
			res, err := g.Query(Query{K: 10, X: x, Epsilon: 0.1, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluated > res.Retrieved || res.Evaluated > res.ActiveAtQuery {
				t.Errorf("%s query %d: evaluated %d of %d retrieved, %d active",
					alg, qi, res.Evaluated, res.Retrieved, res.ActiveAtQuery)
			}
			switch {
			case alg == TopkRep && res.GainEvals != 0:
				t.Errorf("TopkRep query %d: %d gain evaluations, want 0", qi, res.GainEvals)
			case alg != TopkRep && res.GainEvals < len(res.Elements):
				t.Errorf("%s query %d: %d gain evaluations for %d results", alg, qi, res.GainEvals, len(res.Elements))
			}
			if alg != MTTS && res.Certified != 0 {
				t.Errorf("%s query %d: %d runs rejected by certificate, want 0", alg, qi, res.Certified)
			}
		}
	}
}

// putArena's cap sees the sieve array and its re-anchor double buffer. At
// ε = 0.001, k = 20 they hold |Φ| = log(2k)/log(1+ε) ≈ 3 700 candidates of
// 24 B each, twice: ≈ 178 KB of the 384 KB cap that used to go uncounted.
func TestArenaFootprintCountsSieves(t *testing.T) {
	g, xs := goldenEngine(t)
	v := g.front.Load().view()
	a := new(arena)
	q := Query{K: 20, X: xs[0], Epsilon: 0.001, Algorithm: MTTS}
	var phi int
	// The second run re-anchors into the array the first one left.
	for run := 0; run < 2; run++ {
		if _, err := v.mtts(context.Background(), q, a); err != nil {
			t.Fatal(err)
		}
		phi = len(a.sieves)
		a.reset()
	}
	var sets int
	for _, cs := range a.free {
		sets += cs.Footprint()
	}
	if got, sieves := a.footprint(), 2*int(unsafe.Sizeof(sieveCand{}))*phi; got < sets+sieves {
		t.Errorf("footprint %d B, want ≥ %d B of candidate sets + 2·24·|Φ| = %d B (|Φ| = %d)",
			got, sets, sieves, phi)
	}
}

// A pooled arena retains what its queries touched, not the vocabulary: the
// word numbering its candidate sets share holds pages of the words of
// admitted elements. Warmed by MTTS and MTTD queries at k = 10 on one and
// three query topics, over documents of AMiner's length drawn uniformly
// from 71 000 words (the paper's pruned AMiner vocabulary), it still fits
// under maxArenaBytes after reset, so putArena keeps it. A numbering indexed
// by word ID would hold at least 284 KB here by itself. Heavier queries on
// this window (six and more topics at k = 20, sixteen at k = 10) outgrow
// the cap, as they did with per-(word, topic) coverage tables, and are
// dropped by design.
func TestArenaFitsPaperVocabulary(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const z, v = 16, 71000
	g, err := NewEngine(Config{
		Model:        testutil.RandModel(rng, z, v),
		WindowLength: 600,
		Params:       score.Params{Lambda: 0.5, Eta: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]*stream.Element, 1500)
	for i := range elems {
		elems[i] = testutil.RandElement(rng, i+1, z, v, 4)
		words := make([]textproc.WordID, 30+rng.Intn(40)) // AMiner averages 49 tokens
		for j := range words {
			words[j] = textproc.WordID(rng.Intn(v))
		}
		elems[i].Doc = textproc.NewDocument(words)
	}
	buckets, err := stream.Partition(elems, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	view := g.front.Load().view()
	a := new(arena)
	for qi, x := range queryVectors(rng, z)[:2] { // one and three query topics
		q := Query{K: 10, X: x, Epsilon: 0.1}
		for _, alg := range []func(context.Context, Query, *arena) (Result, error){view.mtts, view.mttd} {
			if _, err := alg(context.Background(), q, a); err != nil {
				t.Fatal(err)
			}
			a.reset()
			if got := a.footprint(); got > maxArenaBytes {
				t.Errorf("query %d: arena retains %d B after reset (numbering %d B), past the %d B pool cap",
					qi, got, a.words.Footprint(), maxArenaBytes)
			}
		}
	}
	t.Logf("arena %d B after reset, numbering %d B of it", a.footprint(), a.words.Footprint())
}

// Every answered query lands once in each per-algorithm Figure-10 histogram.
func TestQueryObservesFigure10(t *testing.T) {
	g := paperEngine(t)
	for _, alg := range []Algorithm{MTTS, MTTD, TopkRep} {
		o := obsQueryByAlg[alg]
		before := [...]uint64{o.duration.Count(), o.evalRatio.Count(), o.retrieved.Count(), o.gainEvals.Count()}
		if _, err := g.Query(Query{K: 2, X: papertest.QueryUniform(), Algorithm: alg}); err != nil {
			t.Fatal(err)
		}
		after := [...]uint64{o.duration.Count(), o.evalRatio.Count(), o.retrieved.Count(), o.gainEvals.Count()}
		for i := range before {
			if after[i] != before[i]+1 {
				t.Errorf("%s: histogram %d went %d → %d, want one observation", alg, i, before[i], after[i])
			}
		}
		// A rejected query is not a data point.
		if _, err := g.Query(Query{K: 0, X: papertest.QueryUniform(), Algorithm: alg}); err == nil {
			t.Fatal("k = 0 accepted")
		}
		if o.retrieved.Count() != after[2] {
			t.Errorf("%s: a rejected query was observed", alg)
		}
	}
}
