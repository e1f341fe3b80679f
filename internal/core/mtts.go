package core

import (
	"context"
	"math"

	"github.com/social-streams/ksir/internal/score"
)

// sieveCand is one threshold candidate S_ϕ with ϕ = (1+ε)^j and its
// admission threshold ϕ/2k cached (computing pow in the per-element loop
// is measurably expensive).
//
// Candidates whose S_ϕ hold the same elements point at the same set. In the
// array sorted by j they are always adjacent: a re-anchor only appends new
// (empty, shared) candidates above the survivors, and two candidates that
// still agree after an element made the same decision on it — both admitted,
// so every threshold between theirs admitted too, or both rejected, likewise.
type sieveCand struct {
	j         int
	threshold float64
	set       *score.CandidateSet
}

// mtts implements Algorithm 2 (Multi-Topic ThresholdStream) against one
// immutable snapshot view.
//
// It maintains SieveStreaming-style candidates S_ϕ for geometric threshold
// estimates ϕ = (1+ε)^j of OPT, feeds them elements best-score-first from
// the ranked lists, and stops as soon as the upper bound UB(x) of every
// unevaluated element falls below the minimum admission threshold TH of the
// unfilled candidates. Theorem 4.2: the best candidate is (1/2 − ε)-optimal.
//
// The element-side half of every marginal gain — shared topics, children
// and their influence probabilities, δ(e, x) — is prepared once per
// retrieved element; each candidate only reads its own coverage against it.
//
// Cancellation is polled every checkEvery retrievals: a canceled ctx aborts
// with ctx.Err() instead of draining the remaining list descent.
func (v *view) mtts(ctx context.Context, q Query, a *arena) (Result, error) {
	tr := &a.tr
	tr.start(v, q.X)
	eps := q.Epsilon
	k := float64(q.K)
	logBase := math.Log(1 + eps)

	var deltaMax float64
	evaluated, gainEvals, certified := 0, 0, 0

	th := 0.0 // minimum admission threshold among unfilled candidates
	ub := tr.ub()
	for ub >= th {
		if evaluated%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		e, slot, ok := tr.pop()
		if !ok {
			break
		}
		a.buf.Reset()
		p := v.sc.PrepareAt(&a.buf, e, slot, q.X)
		delta := p.Delta
		evaluated++

		if delta > deltaMax {
			deltaMax = delta
			// Re-anchor Φ to [δmax, 2k·δmax] (line 8), dropping candidates
			// that fell out of range (line 9) and creating the new ones;
			// survivors move across with their sets.
			jLo := int(math.Ceil(math.Log(deltaMax) / logBase))
			jHi := int(math.Floor(math.Log(2*k*deltaMax) / logBase))
			old, next := a.sieves, a.spare[:0]
			var fresh *score.CandidateSet // the one empty set all new candidates share
			oi := 0
			for j := jLo; j <= jHi; j++ {
				for oi < len(old) && old[oi].j < j {
					oi++
				}
				if oi < len(old) && old[oi].j == j {
					next = append(next, old[oi])
					continue
				}
				if fresh == nil {
					fresh = a.newSet(v.sc.Scorer(), q.X)
				}
				next = append(next, sieveCand{
					j:         j,
					threshold: math.Pow(1+eps, float64(j)) / (2 * k),
					set:       fresh,
				})
			}
			a.sieves, a.spare = next, old
		}

		// Each candidate decides independently (lines 10–12); the δ(e,x) ≥
		// ϕ/2k filter spares the marginal-gain computation for the
		// higher-threshold candidates. Candidates that have admitted exactly
		// the same elements share one set (they are adjacent: see sieveCand),
		// so Δ(e|S) is decided once per run of them; thresholds ascend, so
		// the candidates of a run that pass the filter and admit e are a
		// prefix of it, which forks off with a copy of the set when the rest
		// of the run stays behind.
		//
		// Runs are visited from the highest threshold down, and each run
		// that rejected e is remembered with its gain. A run whose set
		// contains a remembered set T with Δ(e|T) below its lowest threshold
		// rejects e too (submodularity: Δ(e|S) ≤ Δ(e|T) for T ⊆ S), so its
		// gain is never computed. The order decides nothing: a run's verdict
		// reads only its own set as it was before e, and a fork or an
		// admission touches only that run's set.
		//
		// TH (line 14), the smallest admission threshold of any unfilled
		// candidate, is taken run by run on the way down.
		sieves := a.sieves
		a.rejected = a.rejected[:0]
		th = math.Inf(1)
		for lo, hi := len(sieves), len(sieves); hi > 0; hi = lo {
			set := sieves[hi-1].set
			for lo = hi - 1; lo > 0 && sieves[lo-1].set == set; lo-- {
			}
			if set.Len() >= q.K {
				continue
			}
			m := lo // the candidates [lo, m) admit e
			switch {
			case delta < sieves[lo].threshold: // the δ filter rejects the run
			case a.certify(set, sieves[lo].threshold):
				certified++
			default:
				gainEvals++
				gain := set.Gain(&p)
				for m < hi && delta >= sieves[m].threshold && gain >= sieves[m].threshold {
					m++
				}
				if m == lo {
					a.rejected = append(a.rejected, rejection{set, gain})
				}
			}
			if m < hi { // [m, hi) keep the unfilled set
				th = min(th, sieves[m].threshold)
			}
			if m == lo {
				continue
			}
			if m < hi {
				set = a.newSet(v.sc.Scorer(), q.X)
				set.CopyFrom(sieves[lo].set)
				for i := lo; i < m; i++ {
					sieves[i].set = set
				}
			}
			set.AddProbe(&p)
			if set.Len() < q.K {
				th = min(th, sieves[lo].threshold)
			}
		}
		if len(sieves) == 0 {
			th = 0
		}
		ub = tr.ub()
	}

	// Return the candidate with the maximum score (line 15).
	var best *score.CandidateSet
	for i := range a.sieves {
		if best == nil || a.sieves[i].set.Value() > best.Value() {
			best = a.sieves[i].set
		}
	}
	res := a.result(v, best, evaluated, gainEvals)
	res.Certified = certified
	return res, nil
}

// certSlack is the relative margin a rejection certificate must clear. Exact
// arithmetic needs none: Δ(e|S) ≤ Δ(e|T) for T ⊆ S. The computed gains are
// monotone in the set except for one step, the influence update
// 1 − (1−old)(1−p), which S accumulates over its members in another order
// than T and may round an ulp lower. That moves Δ(e|S) by about n·u·δ(e,x)
// for n children and unit roundoff u, against a threshold of at least
// δ(e,x)/2k: ≈ 1e-12 relative at k = 20 (TestGainMonotoneAcrossInsertionOrders
// sees at most 9e-16 of Δ(e|T) itself). 1e-9 leaves three orders of
// magnitude, and rejects by certificate only what computing the gain would.
const certSlack = 1e-9

// rejection is a sieve run that rejected the current element: its set T and
// the computed Δ(e|T), an upper bound on Δ(e|S) for every S ⊇ T.
type rejection struct {
	set   *score.CandidateSet
	bound float64
}

// certify reports whether some remembered rejection proves that the run
// holding s, whose lowest threshold is th, rejects the current element: its
// bound is below th by certSlack and its set is a subset of s (at most k
// probes of s). Remembered runs whose bound reached th are dropped first:
// thresholds only fall along the descent, so they can certify no later run.
// A certified run is itself not remembered — its certifier covers every
// superset of its set with the same bound.
func (a *arena) certify(s *score.CandidateSet, th float64) bool {
	limit := th * (1 - certSlack)
	kept := a.rejected[:0]
	for _, r := range a.rejected {
		if r.bound < limit {
			kept = append(kept, r)
		}
	}
	a.rejected = kept
	// The latest rejection is the nearest run above, the likeliest subset.
	for i := len(kept) - 1; i >= 0; i-- {
		if subset(kept[i].set, s) {
			return true
		}
	}
	return false
}

// subset reports whether every member of t is in s.
func subset(t, s *score.CandidateSet) bool {
	if t.Len() > s.Len() {
		return false
	}
	for _, e := range t.Members() {
		if !s.Contains(e.ID) {
			return false
		}
	}
	return true
}
