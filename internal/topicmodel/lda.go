package topicmodel

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/social-streams/ksir/internal/textproc"
)

// LDAConfig configures collapsed-Gibbs LDA training. The paper (§5.1) uses
// α = 50/z and β = 0.01, which are the defaults here when the fields are 0.
type LDAConfig struct {
	Topics     int
	VocabSize  int
	Alpha      float64 // document-topic Dirichlet prior; 0 → 50/Topics
	Beta       float64 // topic-word Dirichlet prior; 0 → 0.01
	Iterations int     // Gibbs sweeps; 0 → 100
	Seed       int64
}

func (c *LDAConfig) fill() error {
	if c.Topics <= 0 {
		return fmt.Errorf("lda: Topics must be positive, got %d", c.Topics)
	}
	if c.VocabSize <= 0 {
		return fmt.Errorf("lda: VocabSize must be positive, got %d", c.VocabSize)
	}
	if c.Alpha == 0 {
		c.Alpha = 50 / float64(c.Topics)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iterations == 0 {
		c.Iterations = 100
	}
	return checkPriors("lda", c.Topics, c.VocabSize, c.Alpha, c.Beta, c.Iterations)
}

// checkPriors refuses what a Gibbs sampler cannot use: a prior that is not
// finite and positive gives negative or NaN weights, and one whose total
// over the topics (z·α) or the vocabulary (V·β) overflows gives a φ or a
// document distribution of zeros. A negative sweep count would silently
// run none.
func checkPriors(model string, z, v int, alpha, beta float64, iterations int) error {
	if !(alpha > 0) || math.IsInf(float64(z)*alpha, 1) {
		return fmt.Errorf("%s: Alpha must be positive with Topics·Alpha finite, got %v", model, alpha)
	}
	if !(beta > 0) || math.IsInf(float64(v)*beta, 1) {
		return fmt.Errorf("%s: Beta must be positive with VocabSize·Beta finite, got %v", model, beta)
	}
	if iterations < 0 {
		return fmt.Errorf("%s: Iterations must not be negative, got %d", model, iterations)
	}
	return nil
}

// TrainLDA trains an LDA model on token-ID documents with collapsed Gibbs
// sampling and returns the model together with the per-document topic
// distributions of the training corpus.
//
// A step redraws one token's topic t with weight
// (n_{d,t} + α)·(n_{t,w} + β) / (n_t + Vβ). For the length of training the
// topic-word counts are word-major (w·z + t), so the z weights of a token
// read one contiguous row, and each of the three factors is kept as a
// float64 array (the document's filled when the sweep reaches it) that a
// step updates only where its count moved, with the same expression of the
// same integer. The products, divisions and sums are
// those of a sampler that converts every count at every step, in the same
// order, so the model is the same to the bit (TestTrainLDAGolden).
func TrainLDA(docs [][]textproc.WordID, cfg LDAConfig) (*Model, []TopicVec, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	z, v := cfg.Topics, cfg.VocabSize
	alpha, beta := cfg.Alpha, cfg.Beta
	vBeta := float64(float64(v) * beta)
	rng := rand.New(rand.NewSource(cfg.Seed))

	nDocTopic := make([]int32, len(docs)*z) // n_{d,t}
	nWordTopic := make([]int32, v*z)        // n_{t,w} at w·z + t
	nTopic := make([]int64, z)              // n_t
	assign := make([][]topicID, len(docs))

	// Random initialization.
	for d, doc := range docs {
		assign[d] = make([]topicID, len(doc))
		for j, w := range doc {
			if int(w) >= v {
				return nil, nil, fmt.Errorf("lda: word %d out of vocab %d", w, v)
			}
			t := rng.Intn(z)
			assign[d][j] = topicID(t)
			nDocTopic[d*z+t]++
			nWordTopic[int(w)*z+t]++
			nTopic[t]++
		}
	}

	docF := make([]float64, z)    // n_{d,t} + α of the document being swept
	wordF := make([]float64, v*z) // n_{t,w} + β at w·z + t
	topicF := make([]float64, z)  // n_t + Vβ
	cum := make([]float64, z)     // running sums of a step's weights
	for i, n := range nWordTopic {
		wordF[i] = float64(n) + beta
	}
	for t, n := range nTopic {
		topicF[t] = float64(n) + vBeta
	}
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range docs {
			nd := nDocTopic[d*z : d*z+z]
			for t, n := range nd {
				docF[t] = float64(n) + alpha
			}
			as := assign[d]
			for j, w := range doc {
				nw := nWordTopic[int(w)*z : int(w)*z+z]
				row := wordF[int(w)*z : int(w)*z+z]
				t := int(as[j])
				move(nd, docF, t, -1, alpha)
				move(nw, row, t, -1, beta)
				move(nTopic, topicF, t, -1, vBeta)
				t = drawLDA(rng, cum, docF, row, topicF)
				as[j] = topicID(t)
				move(nd, docF, t, 1, alpha)
				move(nw, row, t, 1, beta)
				move(nTopic, topicF, t, 1, vBeta)
			}
		}
	}

	// φ_t(w) = (n_{t,w} + β) / (n_t + Vβ), written topic-major.
	m := &Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
	for w := 0; w < v; w++ {
		row := wordF[w*z : w*z+z]
		for t, f := range row {
			m.Phi[t*v+w] = f / topicF[t]
		}
	}
	var totalTokens int64
	for t := 0; t < z; t++ {
		m.PTopic[t] = float64(nTopic[t])
		totalTokens += nTopic[t]
	}
	if totalTokens > 0 {
		for t := range m.PTopic {
			m.PTopic[t] /= float64(totalTokens)
		}
	} else {
		for t := range m.PTopic {
			m.PTopic[t] = 1 / float64(z)
		}
	}

	docVecs := make([]TopicVec, len(docs))
	zAlpha := float64(float64(z) * alpha)
	dense := make([]float64, z)
	for d, doc := range docs {
		denom := float64(len(doc)) + zAlpha
		for t := 0; t < z; t++ {
			dense[t] = (float64(nDocTopic[d*z+t]) + alpha) / denom
		}
		docVecs[d] = NewTopicVec(dense)
	}
	return m, docVecs, nil
}

// move adds by to the count n[t] and sets its factor f[t] to the count
// plus prior.
func move[N int32 | int64](n []N, f []float64, t int, by N, prior float64) {
	n[t] += by
	f[t] = float64(n[t]) + prior
}

// drawLDA draws a topic with weight a[t]·b[t]/c[t]. It leaves the running
// sums of the weights in cum and scans them for the first one above
// u·Σ, so it adds the weights in the order, and returns the topic, that a
// scan over the weights themselves would (the last topic if rounding puts
// u·Σ at Σ).
func drawLDA(rng *rand.Rand, cum, a, b, c []float64) int {
	a, b, c = a[:len(cum)], b[:len(cum)], c[:len(cum)]
	var sum float64
	for t := range cum {
		sum += a[t] * b[t] / c[t]
		cum[t] = sum
	}
	return searchCum(cum, rng.Float64()*sum)
}

// searchCum returns the first t with u < cum[t], or the last index if
// there is none. The weights are ≥ 0 (checkPriors), so cum does not
// decrease: skipping eight sums at a time while the eighth is still ≤ u,
// then scanning, finds the t a scan from 0 would.
func searchCum(cum []float64, u float64) int {
	lo := 0
	for lo+8 <= len(cum) && !(u < cum[lo+7]) {
		lo += 8
	}
	for t := lo; t < len(cum); t++ {
		if u < cum[t] {
			return t
		}
	}
	return len(cum) - 1
}

// topicID holds a topic assignment. Using int16 supports up to 32767 topics,
// far above the paper's z ≤ 250, at half the memory of int32.
type topicID = int16
