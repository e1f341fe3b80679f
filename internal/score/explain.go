package score

import (
	"github.com/social-streams/ksir/internal/flat"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Contribution decomposes one result element's marginal contribution to
// f(S, x) at the moment it was selected: the semantic (word-coverage) and
// influence (reference-coverage) parts, per query topic.
type Contribution struct {
	Elem *stream.Element
	// Gain is the element's marginal gain Δ(e|S_before) — the Gains of a
	// result set in selection order telescope to f(S, x).
	Gain float64
	// Semantic and Influence split Gain into its two terms of Equation 2
	// (already weighted by λ, (1−λ)/η and the query weights x_i).
	Semantic  float64
	Influence float64
	// TopicGains maps topic → that topic's share of Gain (weighted by x_i).
	TopicGains map[int32]float64
	// NewWords counts the distinct words this element contributed that no
	// earlier selection covered with a higher weight on some query topic.
	NewWords int
}

// Explain recomputes the selection-order contribution breakdown of a result
// set. It is a diagnostic tool (the engine's algorithms do not pay for it);
// the total of all Gains equals SetScore(set, x) up to float rounding.
func (s *Scorer) Explain(set []*stream.Element, x topicmodel.TopicVec) []Contribution {
	cs := NewCandidateSet(s, x)
	out := make([]Contribution, 0, len(set))
	params := s.params
	var buf ProbeBuf
	for _, e := range set {
		c := Contribution{Elem: e, TopicGains: make(map[int32]float64)}
		buf.Reset()
		p := s.Prepare(&buf, e, x)
		fresh := make([]bool, len(e.Doc.Terms))
		for pi, pr := range p.pairs {
			xi := x.Probs[pr.qi]
			var dSem float64
			row := sigmaRow(p.sigma, e, int(pr.ej))
			for k, tc := range e.Doc.Terms {
				cov := coverage(cs.covered[pr.qi], cs.words.find(tc.Word))
				if sig := row[k]; sig > cov {
					dSem += sig - cov
					fresh[k] = true
				}
			}
			var dInfl float64
			for ci, child := range p.children {
				dInfl += float64(p.childP[pi*len(p.children)+ci] * (1 - entry(&cs.inflProb, int64(child.ID), pr.qi)))
			}
			sem := float64(xi * params.Lambda * dSem)
			infl := float64(xi * params.inflFactor() * dInfl)
			c.Semantic += sem
			c.Influence += infl
			c.TopicGains[x.Topics[pr.qi]] += sem + infl
		}
		c.Gain = c.Semantic + c.Influence
		for _, f := range fresh {
			if f {
				c.NewWords++
			}
		}
		cs.AddProbe(&p)
		out = append(out, c)
	}
	return out
}

// entry returns the value t holds for (key, qi), 0 when the key is absent.
func entry(t *flat.Table, key int64, qi int32) float64 {
	if r := t.Find(key, qi); r >= 0 {
		return *t.Val(r)
	}
	return 0
}
