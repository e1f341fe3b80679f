// Package topicmodel implements the probabilistic topic-model substrate used
// by k-SIR: LDA and the biterm topic model (BTM), both trained with collapsed
// Gibbs sampling, plus fold-in inference for unseen documents and keyword
// queries. The paper (§3.1) treats the topic model as a black-box oracle
// supplying p_i(w) and p_i(e); Model is that oracle.
package topicmodel

import (
	"fmt"
	"math"
	"sort"

	"github.com/social-streams/ksir/internal/textproc"
)

// Model is a trained topic model: z topics over a vocabulary of v words.
// Phi[i*V+w] = p_i(w), the probability of word w under topic i; each topic
// row sums to 1.
type Model struct {
	Z   int       // number of topics
	V   int       // vocabulary size
	Phi []float64 // row-major Z×V topic-word matrix
	// PTopic is the marginal topic distribution p(z), used by BTM-style
	// inference. For LDA it is estimated from the training corpus.
	PTopic []float64
}

// TopicWord returns p_i(w). It panics if topic or word is out of range.
func (m *Model) TopicWord(topic int, w textproc.WordID) float64 {
	return m.Phi[topic*m.V+int(w)]
}

// Validate checks structural invariants: dimensions match and every topic
// row is a probability distribution.
func (m *Model) Validate() error {
	if len(m.Phi) != m.Z*m.V {
		return fmt.Errorf("topicmodel: Phi has %d entries, want %d", len(m.Phi), m.Z*m.V)
	}
	for i := 0; i < m.Z; i++ {
		var s float64
		for w := 0; w < m.V; w++ {
			p := m.Phi[i*m.V+w]
			if p < 0 {
				return fmt.Errorf("topicmodel: negative p_%d(%d) = %v", i, w, p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("topicmodel: topic %d sums to %v, want 1", i, s)
		}
	}
	return nil
}

// TopicVec is a sparse element-topic (or query-topic) distribution:
// parallel slices of topic indices and probabilities, sorted by topic,
// summing to 1 (or empty for an element with no usable words).
type TopicVec struct {
	Topics []int32
	Probs  []float64
}

// NewTopicVec builds a sorted TopicVec from a dense distribution, dropping
// zero entries.
func NewTopicVec(dense []float64) TopicVec {
	n := 0
	for _, p := range dense {
		if p > 0 {
			n++
		}
	}
	if n == 0 {
		return TopicVec{}
	}
	v := TopicVec{Topics: make([]int32, 0, n), Probs: make([]float64, 0, n)}
	for i, p := range dense {
		if p > 0 {
			v.Topics = append(v.Topics, int32(i))
			v.Probs = append(v.Probs, p)
		}
	}
	return v
}

// Prob returns p_i(e) for topic i (0 if absent).
func (v TopicVec) Prob(topic int32) float64 {
	j := sort.Search(len(v.Topics), func(j int) bool { return v.Topics[j] >= topic })
	if j < len(v.Topics) && v.Topics[j] == topic {
		return v.Probs[j]
	}
	return 0
}

// Len returns the number of topics with non-zero probability.
func (v TopicVec) Len() int { return len(v.Topics) }

// Sum returns the total probability mass (1 for a full distribution,
// possibly <1 after truncation without renormalization).
func (v TopicVec) Sum() float64 {
	var s float64
	for _, p := range v.Probs {
		s += p
	}
	return s
}

// Cosine returns the cosine similarity between two sparse topic vectors,
// the relevance measure used by the REL baseline (§2, [19, 39]).
func (v TopicVec) Cosine(o TopicVec) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(v.Topics) && j < len(o.Topics) {
		switch {
		case v.Topics[i] < o.Topics[j]:
			i++
		case v.Topics[i] > o.Topics[j]:
			j++
		default:
			dot += v.Probs[i] * o.Probs[j]
			i++
			j++
		}
	}
	nv, no := v.norm(), o.norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return dot / (nv * no)
}

func (v TopicVec) norm() float64 {
	var s float64
	for _, p := range v.Probs {
		s += p * p
	}
	return math.Sqrt(s)
}

// Truncate keeps at most maxTopics entries with probability ≥ minProb and
// renormalizes the survivors to sum to 1. This reproduces the sparsity the
// paper observes ("the average number of topics per element is less than
// 2", §4) and that the ranked-list pruning relies on. Larger probabilities
// win, and the lower topic wins a tie. If nothing survives the thresholds,
// the single largest entry is kept.
func (v TopicVec) Truncate(maxTopics int, minProb float64) TopicVec {
	if v.Len() == 0 || maxTopics <= 0 {
		return TopicVec{}
	}
	type tp struct {
		t int32
		p float64
	}
	before := func(a, b tp) bool { return a.p > b.p || (a.p == b.p && a.t < b.t) }
	// One pass keeps the survivors so far in kept, best first: every caller
	// asks for a handful of topics, which fit the stack.
	var stack [8]tp
	kept := stack[:0]
	if maxTopics > len(stack) {
		kept = make([]tp, 0, min(maxTopics, v.Len()))
	}
	best := tp{v.Topics[0], v.Probs[0]}
	for i, t := range v.Topics {
		e := tp{t, v.Probs[i]}
		if before(e, best) {
			best = e
		}
		if e.p < minProb || (len(kept) == maxTopics && !before(e, kept[len(kept)-1])) {
			continue
		}
		if len(kept) < maxTopics {
			kept = append(kept, e)
		}
		j := len(kept) - 1
		for ; j > 0 && before(e, kept[j-1]); j-- {
			kept[j] = kept[j-1]
		}
		kept[j] = e
	}
	if len(kept) == 0 {
		kept = append(kept, best)
	}
	// Back into topic order, summing in that order.
	for i := 1; i < len(kept); i++ {
		e := kept[i]
		j := i
		for ; j > 0 && kept[j-1].t > e.t; j-- {
			kept[j] = kept[j-1]
		}
		kept[j] = e
	}
	out := TopicVec{
		Topics: make([]int32, len(kept)),
		Probs:  make([]float64, len(kept)),
	}
	var sum float64
	for _, e := range kept {
		sum += e.p
	}
	for i, e := range kept {
		out.Topics[i] = e.t
		out.Probs[i] = e.p / sum
	}
	return out
}
