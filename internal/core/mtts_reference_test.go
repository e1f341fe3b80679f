package core

import (
	"math"
	"testing"

	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// algorithm2 is Algorithm 2 (MTTS) as the paper writes it: one independent
// candidate set S_ϕ per ϕ ∈ Φ, every candidate visited in ascending ϕ for
// every retrieved element, with no sets shared between candidates, no forks
// and no rejection certificates. It runs the engine's descent (newTraversal)
// and stop rule (UB ≥ TH) and scores with the engine's CandidateSet, so a
// difference against Engine.Query is a difference in the sieve bookkeeping
// alone. evals counts the marginal gains Δ(e|S_ϕ) it computed.
func algorithm2(g *Engine, x topicmodel.TopicVec, k int, eps float64, pool *setPool) (res Result, evals int) {
	type candidate struct {
		threshold float64 // ϕ/2k
		set       *score.CandidateSet
	}
	scorer := g.Scorer()
	var buf score.ProbeBuf
	tr := newTraversal(g, x)
	logBase := math.Log(1 + eps)
	var (
		phi      = map[int]*candidate{} // S_ϕ by j, ϕ = (1+ε)^j
		jLo, jHi = 0, -1
		deltaMax float64
	)
	th, ub := 0.0, tr.ub()
	for ub >= th {
		e, _, ok := tr.pop()
		if !ok {
			break
		}
		res.Evaluated++
		delta := scorer.Score(e, x)
		if delta > deltaMax {
			// Lines 8–9: Φ = {(1+ε)^j : δmax ≤ (1+ε)^j ≤ 2k·δmax}.
			deltaMax = delta
			jLo = int(math.Ceil(math.Log(deltaMax) / logBase))
			jHi = int(math.Floor(math.Log(2*float64(k)*deltaMax) / logBase))
			for j, c := range phi {
				if j < jLo || j > jHi {
					pool.put(c.set)
					delete(phi, j)
				}
			}
			for j := jLo; j <= jHi; j++ {
				if phi[j] == nil {
					phi[j] = &candidate{
						threshold: math.Pow(1+eps, float64(j)) / (2 * float64(k)),
						set:       pool.get(scorer, x),
					}
				}
			}
		}
		// Lines 10–12, with the δ(e,x) ≥ ϕ/2k filter the engine applies
		// before it computes a gain.
		buf.Reset()
		p := scorer.Prepare(&buf, e, x)
		th = math.Inf(1)
		for j := jLo; j <= jHi; j++ {
			c := phi[j]
			if c.set.Len() < k && delta >= c.threshold {
				evals++
				if c.set.Gain(&p) >= c.threshold {
					c.set.AddProbe(&p)
				}
			}
			// Line 14.
			if c.set.Len() < k && c.threshold < th {
				th = c.threshold
			}
		}
		if len(phi) == 0 {
			th = 0
		}
		ub = tr.ub()
	}
	// Line 15, ties to the smallest ϕ.
	var best *score.CandidateSet
	for j := jLo; j <= jHi; j++ {
		if s := phi[j].set; best == nil || s.Value() > best.Value() {
			best = s
		}
	}
	res.Retrieved = tr.retrieved
	if best != nil {
		res.Elements, res.Score = append([]*stream.Element(nil), best.Members()...), best.Value()
	}
	for _, c := range phi {
		pool.put(c.set)
	}
	return res, evals
}

// setPool recycles algorithm2's sets across calls: at ε = 0.001 a query
// holds thousands of them.
type setPool []*score.CandidateSet

func (p *setPool) get(s *score.Scorer, x topicmodel.TopicVec) *score.CandidateSet {
	n := len(*p)
	if n == 0 {
		return score.NewCandidateSet(s, x)
	}
	cs := (*p)[n-1]
	*p = (*p)[:n-1]
	cs.Reset(s, x)
	return cs
}

func (p *setPool) put(cs *score.CandidateSet) { *p = append(*p, cs) }

// TestMTTSMatchesAlgorithm2 holds the engine's MTTS — sieves that agree
// sharing one set, forks, the descending run visit and its rejection
// certificates — to the algorithm as written, bit for bit, over windows of
// seeded golden-style streams, k, ε down to the smallest accepted and eight
// query vectors per window.
func TestMTTSMatchesAlgorithm2(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded, and ~9× slower under the race detector (30 s) for nothing it could find")
	}
	var queries, certified, saved int
	var pool setPool
	// A window still filling (75 of T = 80 time units) and a full one that
	// has expired most of its stream.
	for _, w := range []struct {
		seed    int64
		buckets int
	}{{1, 3}, {2, 12}} {
		g, buckets, rng := seededStream(t, w.seed, 300, 80)
		for _, b := range buckets[:w.buckets] {
			if err := g.Ingest(b.End, b.Elems); err != nil {
				t.Fatal(err)
			}
		}
		xs := append(queryVectors(rng, g.cfg.Model.Z), queryVectors(rng, g.cfg.Model.Z)...)
		for qi, x := range xs {
			for _, k := range []int{1, 3, 10, 20} {
				for _, eps := range []float64{0.001, 0.05, 0.1, 0.3} {
					want, evals := algorithm2(g, x, k, eps, &pool)
					got, err := g.Query(Query{K: k, X: x, Epsilon: eps, Algorithm: MTTS})
					if err != nil {
						t.Fatal(err)
					}
					queries++
					certified += got.Certified
					saved += evals - got.GainEvals
					if !equalIDs(idsOf(got), idsOf(want)) ||
						math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
						got.Evaluated != want.Evaluated || got.Retrieved != want.Retrieved {
						t.Errorf("seed %d query %d k=%d ε=%v:\n got ids %v score %x evaluated %d retrieved %d\nwant ids %v score %x evaluated %d retrieved %d",
							w.seed, qi, k, eps,
							idsOf(got), math.Float64bits(got.Score), got.Evaluated, got.Retrieved,
							idsOf(want), math.Float64bits(want.Score), want.Evaluated, want.Retrieved)
					}
					if got.GainEvals+got.Certified > evals {
						t.Errorf("seed %d query %d k=%d ε=%v: %d gains computed + %d certified > %d computed by Algorithm 2",
							w.seed, qi, k, eps, got.GainEvals, got.Certified, evals)
					}
				}
			}
		}
	}
	if certified == 0 {
		t.Error("no run was rejected by certificate: the comparison did not exercise them")
	}
	t.Logf("%d queries: %d gains saved against Algorithm 2, %d runs rejected by certificate", queries, saved, certified)
}

func idsOf(r Result) []int64 {
	ids := make([]int64, len(r.Elements))
	for i, e := range r.Elements {
		ids[i] = int64(e.ID)
	}
	return ids
}
