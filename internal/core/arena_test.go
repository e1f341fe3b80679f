package core

import (
	"context"
	"testing"
	"unsafe"

	"github.com/social-streams/ksir/internal/papertest"
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
// costs a bounded number of allocations — the window's delta and changeset,
// the scorer's cache entries, list nodes, one snapshot: 600 as measured.
// The per-bucket fan-out this pins the absence of (op lists per shard, an
// expired-ID map, and a channel, wait group, closures and goroutines for
// apply and again for replay) read 618 with one shard and 631 with two.
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
	allocs := testing.AllocsPerRun(runs, func() {
		b := buckets[next]
		next++
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 610 {
		t.Errorf("%.1f allocations per bucket, want ≤ 610", allocs)
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
