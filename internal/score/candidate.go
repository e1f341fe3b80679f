package score

import (
	"github.com/social-streams/ksir/internal/flat"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// topicPair is one topic the query vector (position qi) and an element
// (position ej) share, with positive query mass.
type topicPair struct{ qi, ej int32 }

// Probe is the element-side half of a marginal gain Δ(e|S) under one query
// vector x: everything that does not depend on S. Scorer.Prepare computes
// it once per element; every candidate set considering e (MTTS keeps
// O(log k / ε) of them) then only reads its own coverage against it.
type Probe struct {
	Elem *stream.Element
	// Delta is δ(e, x) = f({e}, x), bit-identical to Scorer.Score(e, x).
	Delta float64

	ec       *elemCache        // σ rows by element topic position
	children []*stream.Element // I_t(e) in ascending ID order (the window's own slice)
	pairs    []topicPair       // ascending qi
	// childP[p·|children| + c] = p_i(e ⇝ c) for pairs[p]'s topic i.
	childP []float64
}

// ProbeBuf is the storage probes are carved from. A probe stays valid until
// the Reset of the buffer it was prepared into.
type ProbeBuf struct {
	pairs  []topicPair
	childP []float64
}

// Reset invalidates every probe prepared into b and reuses their storage.
func (b *ProbeBuf) Reset() { b.pairs, b.childP = b.pairs[:0], b.childP[:0] }

// Footprint returns the bytes of storage the buffer retains across Reset.
func (b *ProbeBuf) Footprint() int { return 8*cap(b.pairs) + 8*cap(b.childP) }

// Prepare computes e's probe for query vector x into b. The walk over the
// shared topics and over I_t(e) is the one Score does, in the same order, so
// Delta costs nothing extra and the per-child products are resolved once
// instead of once per candidate set.
func (s *Scorer) Prepare(b *ProbeBuf, e *stream.Element, x topicmodel.TopicVec) Probe {
	ec := s.ensureCached(e)
	p := Probe{Elem: e, ec: ec, children: s.win.ChildrenView(e.ID)}
	p0, c0 := len(b.pairs), len(b.childP)
	i, j := 0, 0
	for i < len(x.Topics) && j < len(e.Topics.Topics) {
		switch {
		case x.Topics[i] < e.Topics.Topics[j]:
			i++
		case x.Topics[i] > e.Topics.Topics[j]:
			j++
		default:
			xi, pe := x.Probs[i], e.Topics.Probs[j]
			var sum float64
			for _, c := range p.children {
				pc := c.Topics.Prob(x.Topics[i])
				sum += pc
				if xi > 0 {
					b.childP = append(b.childP, pe*pc)
				}
			}
			if xi > 0 {
				b.pairs = append(b.pairs, topicPair{int32(i), int32(j)})
			}
			p.Delta += xi * (s.params.Lambda*ec.semTotal[j] + s.params.inflFactor()*(pe*sum))
			i++
			j++
		}
	}
	p.pairs, p.childP = b.pairs[p0:], b.childP[c0:]
	return p
}

// CandidateSet is the incremental evaluation state for one candidate result
// set S of a query vector x. It supports marginal-gain queries Δ(e|S) and
// additions in O(d·(|V_e| + |I_t(e)|)) where d is the number of non-zero
// query entries, exactly the per-evaluation cost the paper's complexity
// analysis assumes (§4.2), each step one probe of a flat table.
//
// MTTS keeps O(log k / ε) of these per query; MTTD and the submodular
// baselines keep one. A set is owned by one goroutine: MarginalGain does not
// change S but does use the set's scratch space.
type CandidateSet struct {
	scorer  *Scorer
	x       topicmodel.TopicVec
	members []*stream.Element
	inSet   flat.Table // member IDs
	value   float64

	// Keyed by (word w, query position i): max_{e∈S} σ_i(w,e), the
	// word-coverage maxima. Keyed by (child c, query position i): p_i(S ⇝ c)
	// for c ∈ I_t(S). Only non-zero values have an entry — a row of x.Len()
	// per word or child would be mostly zeros, elements carrying fewer than
	// two topics on average.
	covered  flat.Table
	inflProb flat.Table

	buf ProbeBuf // backs the probe of MarginalGain(e) / Add(e)
}

// NewCandidateSet returns an empty candidate set for query vector x.
func NewCandidateSet(s *Scorer, x topicmodel.TopicVec) *CandidateSet {
	cs := new(CandidateSet)
	cs.Reset(s, x)
	return cs
}

// Reset empties the set and rebinds it to scorer s and query vector x in
// O(what the previous use touched), keeping its storage. It drops every
// element reference, so a reset set pins nothing of the window it last read.
func (cs *CandidateSet) Reset(s *Scorer, x topicmodel.TopicVec) {
	cs.scorer, cs.x, cs.value = s, x, 0
	clear(cs.members)
	cs.members = cs.members[:0]
	cs.inSet.Reset(false)
	cs.covered.Reset(true)
	cs.inflProb.Reset(true)
	cs.buf.Reset()
}

// CopyFrom makes cs an independent copy of src — same scorer, query vector,
// members and coverage — reusing cs's storage. MTTS forks a candidate this
// way when only some of the sieves sharing it admit an element.
func (cs *CandidateSet) CopyFrom(src *CandidateSet) {
	cs.scorer, cs.x, cs.value = src.scorer, src.x, src.value
	cs.members = append(cs.members[:0], src.members...)
	cs.inSet.CopyFrom(&src.inSet)
	cs.covered.CopyFrom(&src.covered)
	cs.inflProb.CopyFrom(&src.inflProb)
}

// Footprint returns the bytes of storage the set retains across Reset.
func (cs *CandidateSet) Footprint() int {
	return 8*cap(cs.members) + cs.buf.Footprint() +
		cs.inSet.Footprint() + cs.covered.Footprint() + cs.inflProb.Footprint()
}

// Len returns |S|.
func (cs *CandidateSet) Len() int { return len(cs.members) }

// Value returns f(S, x), maintained incrementally.
func (cs *CandidateSet) Value() float64 { return cs.value }

// Members returns the elements of S in insertion order. The caller must not
// mutate the returned slice, and must copy it to keep it past a Reset.
func (cs *CandidateSet) Members() []*stream.Element { return cs.members }

// Contains reports whether e is already in S.
func (cs *CandidateSet) Contains(id stream.ElemID) bool { return cs.inSet.Find(int64(id), 0) >= 0 }

// MarginalGain returns Δ(e|S) = f(S ∪ {e}, x) − f(S, x) without changing S.
// Adding an element already in S gains exactly 0.
func (cs *CandidateSet) MarginalGain(e *stream.Element) float64 {
	cs.buf.Reset()
	p := cs.scorer.Prepare(&cs.buf, e, cs.x)
	return cs.Gain(&p)
}

// Add inserts e into S, updates the incremental state and returns the
// realized marginal gain. Adding a member again is a no-op returning 0.
func (cs *CandidateSet) Add(e *stream.Element) float64 {
	cs.buf.Reset()
	p := cs.scorer.Prepare(&cs.buf, e, cs.x)
	return cs.AddProbe(&p)
}

// Gain is MarginalGain for an element whose probe (for this set's scorer
// and query vector) is already prepared.
func (cs *CandidateSet) Gain(p *Probe) float64 {
	if cs.Contains(p.Elem.ID) {
		return 0
	}
	return cs.eval(p, false)
}

// AddProbe is Add for an element whose probe is already prepared.
func (cs *CandidateSet) AddProbe(p *Probe) float64 {
	if cs.Contains(p.Elem.ID) {
		return 0
	}
	gain := cs.eval(p, true)
	cs.members = append(cs.members, p.Elem)
	cs.inSet.Insert(int64(p.Elem.ID), 0)
	cs.value += gain
	return gain
}

// eval computes Δ(e|S) from e's probe and, with commit set, folds e into the
// coverage state. Topic by topic, term by term and child by child in
// ascending ID, every float sum runs in the order the definition gives it.
func (cs *CandidateSet) eval(p *Probe, commit bool) float64 {
	params := cs.scorer.params
	nc := len(p.children)
	var gain float64
	for pi, pr := range p.pairs {
		// Semantic gain: the uncovered portions of e's word weights.
		var dSem float64
		weights := p.ec.wordWeights[pr.ej]
		for k, tc := range p.Elem.Doc.Terms {
			r := cs.covered.Find(int64(tc.Word), pr.qi)
			var cov float64
			if r >= 0 {
				cov = *cs.covered.Val(r)
			}
			if sig := weights[k]; sig > cov {
				dSem += sig - cov
				if commit {
					if r < 0 {
						r = cs.covered.Insert(int64(tc.Word), pr.qi)
					}
					*cs.covered.Val(r) = sig
				}
			}
		}
		// Influence gain: Σ_c p_i(e⇝c)·(1 − p_i(S⇝c)).
		var dInfl float64
		for ci, c := range p.children {
			pc := p.childP[pi*nc+ci]
			r := cs.inflProb.Find(int64(c.ID), pr.qi)
			var old float64
			if r >= 0 {
				old = *cs.inflProb.Val(r)
			}
			dInfl += pc * (1 - old)
			if commit {
				if now := 1 - (1-old)*(1-pc); r >= 0 {
					*cs.inflProb.Val(r) = now
				} else if now != 0 {
					*cs.inflProb.Val(cs.inflProb.Insert(int64(c.ID), pr.qi)) = now
				}
			}
		}
		gain += cs.x.Probs[pr.qi] * (params.Lambda*dSem + params.inflFactor()*dInfl)
	}
	return gain
}

// IDs returns the member IDs in insertion order.
func (cs *CandidateSet) IDs() []stream.ElemID {
	ids := make([]stream.ElemID, len(cs.members))
	for i, e := range cs.members {
		ids[i] = e.ID
	}
	return ids
}
