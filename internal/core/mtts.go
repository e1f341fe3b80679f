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
	evaluated, gainEvals := 0, 0

	th := 0.0 // minimum admission threshold among unfilled candidates
	ub := tr.ub()
	for ub >= th {
		if evaluated%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		e, ok := tr.pop()
		if !ok {
			break
		}
		a.buf.Reset()
		p := v.scorer.Prepare(&a.buf, e, q.X)
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
					fresh = a.newSet(v.scorer, q.X)
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
		// so Δ(e|S) is computed once per run of them; thresholds ascend, so
		// the candidates of a run that pass the filter and admit e are a
		// prefix of it, which forks off with a copy of the set when the rest
		// of the run stays behind.
		sieves := a.sieves
		for lo, hi := 0, 0; lo < len(sieves); lo = hi {
			set := sieves[lo].set
			for hi = lo + 1; hi < len(sieves) && sieves[hi].set == set; hi++ {
			}
			if set.Len() >= q.K || delta < sieves[lo].threshold {
				continue
			}
			gainEvals++
			gain := set.Gain(&p)
			m := lo
			for m < hi && delta >= sieves[m].threshold && gain >= sieves[m].threshold {
				m++
			}
			if m == lo {
				continue
			}
			if m < hi {
				set = a.newSet(v.scorer, q.X)
				set.CopyFrom(sieves[lo].set)
				for i := lo; i < m; i++ {
					sieves[i].set = set
				}
			}
			set.AddProbe(&p)
		}
		// TH (line 14): the smallest admission threshold of any unfilled
		// candidate.
		th = math.Inf(1)
		for i := range sieves {
			if sieves[i].set.Len() < q.K && sieves[i].threshold < th {
				th = sieves[i].threshold
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
	return a.result(v, best, evaluated, gainEvals), nil
}
