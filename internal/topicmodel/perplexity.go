package topicmodel

import (
	"fmt"
	"math"

	"github.com/social-streams/ksir/internal/textproc"
)

// Perplexity computes the held-out perplexity of the model on documents:
// exp(−Σ_d Σ_{w∈d} log p(w|d) / Σ_d |d|) with p(w|d) = Σ_i p_i(d)·p_i(w),
// where p_i(d) is fold-in inferred. Lower is better; the standard way to
// choose z when sweeping topic counts (the paper trains z ∈ [50, 250]).
func Perplexity(inf *Inferencer, docs [][]textproc.WordID) (float64, error) {
	var logSum float64
	var tokens int64
	m := inf.Model()
	for _, doc := range docs {
		known := make([]textproc.WordID, 0, len(doc))
		for _, w := range doc {
			if int(w) < m.V {
				known = append(known, w)
			}
		}
		if len(known) == 0 {
			continue
		}
		theta := inf.InferDense(known)
		for _, w := range known {
			var p float64
			for i := range theta.Topics {
				p += float64(theta.Probs[i] * m.TopicWord(int(theta.Topics[i]), w))
			}
			if p <= 0 {
				// β-smoothing guarantees p > 0 for in-vocabulary words; a
				// zero here means the model is corrupt.
				return 0, fmt.Errorf("topicmodel: zero word probability for word %d", w)
			}
			logSum += math.Log(p)
			tokens++
		}
	}
	if tokens == 0 {
		return 0, fmt.Errorf("topicmodel: no in-vocabulary tokens to evaluate")
	}
	return math.Exp(-logSum / float64(tokens)), nil
}
