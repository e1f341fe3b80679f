package topicmodel

import (
	"fmt"
	"math/rand"

	"github.com/social-streams/ksir/internal/textproc"
)

// BTMConfig configures biterm-topic-model training. BTM models the corpus
// as a mixture over word co-occurrence pairs ("biterms") rather than over
// documents, which is why it outperforms LDA on very short texts such as
// tweets (§5.1 trains BTM on the Twitter corpus).
type BTMConfig struct {
	Topics     int
	VocabSize  int
	Alpha      float64 // topic mixture prior; 0 → 50/Topics
	Beta       float64 // topic-word prior; 0 → 0.01
	Iterations int     // Gibbs sweeps; 0 → 100
	Seed       int64
	// WindowSize bounds the distance between the two words of a biterm
	// within a document; 0 → 15 (effectively the whole doc for tweets).
	WindowSize int
}

func (c *BTMConfig) fill() error {
	if c.Topics <= 0 {
		return fmt.Errorf("btm: Topics must be positive, got %d", c.Topics)
	}
	if c.VocabSize <= 0 {
		return fmt.Errorf("btm: VocabSize must be positive, got %d", c.VocabSize)
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
	if c.WindowSize == 0 {
		c.WindowSize = 15
	}
	if c.WindowSize < 0 {
		return fmt.Errorf("btm: WindowSize must not be negative, got %d", c.WindowSize)
	}
	return checkPriors("btm", c.Topics, c.VocabSize, c.Alpha, c.Beta, c.Iterations)
}

type biterm struct{ w1, w2 int32 }

// extractBiterms returns all unordered word pairs within the window.
// A single-word document yields the degenerate biterm (w, w) so that no
// document is invisible to the model.
func extractBiterms(doc []textproc.WordID, window int) []biterm {
	var bs []biterm
	for i := 0; i < len(doc); i++ {
		hi := i + window
		if hi > len(doc) {
			hi = len(doc)
		}
		for j := i + 1; j < hi; j++ {
			bs = append(bs, biterm{int32(doc[i]), int32(doc[j])})
		}
	}
	if len(bs) == 0 && len(doc) == 1 {
		bs = append(bs, biterm{int32(doc[0]), int32(doc[0])})
	}
	return bs
}

// TrainBTM trains a biterm topic model with collapsed Gibbs sampling and
// returns the model plus per-document topic distributions inferred from the
// documents' biterms.
func TrainBTM(docs [][]textproc.WordID, cfg BTMConfig) (*Model, []TopicVec, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	z, v := cfg.Topics, cfg.VocabSize
	rng := rand.New(rand.NewSource(cfg.Seed))

	var biterms []biterm
	docRange := make([][2]int, len(docs)) // biterm index range per doc
	for d, doc := range docs {
		for _, w := range doc {
			if int(w) >= v {
				return nil, nil, fmt.Errorf("btm: word %d out of vocab %d", w, v)
			}
		}
		start := len(biterms)
		biterms = append(biterms, extractBiterms(doc, cfg.WindowSize)...)
		docRange[d] = [2]int{start, len(biterms)}
	}

	nTopic := make([]int64, z)       // n_t, biterms assigned to topic t
	nWordTopic := make([]int32, v*z) // n_{t,w}, word occurrences, at w·z + t
	assign := make([]topicID, len(biterms))

	for b, bt := range biterms {
		t := rng.Intn(z)
		assign[b] = topicID(t)
		nTopic[t]++
		nWordTopic[int(bt.w1)*z+t]++
		nWordTopic[int(bt.w2)*z+t]++
	}

	// A step redraws a biterm's topic with weight
	// (n_t + α)·((n_{t,w1} + β)/(2n_t + Vβ))·((n_{t,w2} + β)/(2n_t + Vβ + 1)).
	// As in TrainLDA, the counts are word-major and every factor is a
	// float64 array updated where its count moves, by the expression that
	// converting the count at every step would evaluate.
	vBeta := float64(float64(v) * cfg.Beta)
	topicF := make([]float64, z)  // n_t + α
	denF := make([]float64, z)    // 2n_t + Vβ
	den1F := make([]float64, z)   // 2n_t + Vβ + 1
	wordF := make([]float64, v*z) // n_{t,w} + β at w·z + t
	cum := make([]float64, z)
	moveTopic := func(t int, by int64) {
		nTopic[t] += by
		n := float64(nTopic[t])
		topicF[t] = n + cfg.Alpha
		denF[t] = float64(2*n) + vBeta
		den1F[t] = denF[t] + 1
	}
	for t := range nTopic {
		moveTopic(t, 0)
	}
	for i, n := range nWordTopic {
		wordF[i] = float64(n) + cfg.Beta
	}
	for it := 0; it < cfg.Iterations; it++ {
		for b, bt := range biterms {
			n1, f1 := nWordTopic[int(bt.w1)*z:int(bt.w1)*z+z], wordF[int(bt.w1)*z:int(bt.w1)*z+z]
			n2, f2 := nWordTopic[int(bt.w2)*z:int(bt.w2)*z+z], wordF[int(bt.w2)*z:int(bt.w2)*z+z]
			t := int(assign[b])
			moveTopic(t, -1)
			move(n1, f1, t, -1, cfg.Beta)
			move(n2, f2, t, -1, cfg.Beta)
			t = drawBTM(rng, cum, topicF, f1, denF, f2, den1F)
			assign[b] = topicID(t)
			moveTopic(t, 1)
			move(n1, f1, t, 1, cfg.Beta)
			move(n2, f2, t, 1, cfg.Beta)
		}
	}

	// φ_t(w) = (n_{t,w} + β) / (2n_t + Vβ). wordF becomes φ word-major,
	// which the document distributions below read a biterm's rows from, and
	// Phi its topic-major copy.
	m := &Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
	for w := 0; w < v; w++ {
		row := wordF[w*z : w*z+z]
		for t := range row {
			row[t] /= denF[t]
			m.Phi[t*v+w] = row[t]
		}
	}
	copy(m.PTopic, topicF)
	var ptSum float64
	for _, p := range m.PTopic {
		ptSum += p
	}
	for t := range m.PTopic {
		m.PTopic[t] /= ptSum
	}

	// Per-document distributions: p(z|d) ∝ Σ_{b∈d} p(z|b).
	docVecs := make([]TopicVec, len(docs))
	dense := make([]float64, z)
	probs := cum // the sweep's scratch, free again
	for d := range docs {
		for t := range dense {
			dense[t] = 0
		}
		lo, hi := docRange[d][0], docRange[d][1]
		for b := lo; b < hi; b++ {
			bt := biterms[b]
			phi1 := wordF[int(bt.w1)*z : int(bt.w1)*z+z]
			phi2 := wordF[int(bt.w2)*z : int(bt.w2)*z+z]
			var sum float64
			for t := range probs {
				p := float64(m.PTopic[t] * phi1[t] * phi2[t])
				probs[t] = p
				sum += p
			}
			if sum == 0 {
				continue
			}
			for t := 0; t < z; t++ {
				dense[t] += probs[t] / sum
			}
		}
		n := hi - lo
		if n > 0 {
			for t := range dense {
				dense[t] /= float64(n)
			}
		}
		docVecs[d] = NewTopicVec(dense)
	}
	return m, docVecs, nil
}

// drawBTM draws a topic with weight a[t]·(b[t]/c[t])·(d[t]/e[t]), as
// drawLDA does.
func drawBTM(rng *rand.Rand, cum, a, b, c, d, e []float64) int {
	a, b, c, d, e = a[:len(cum)], b[:len(cum)], c[:len(cum)], d[:len(cum)], e[:len(cum)]
	var sum float64
	for t := range cum {
		sum += float64(a[t] * (b[t] / c[t]) * (d[t] / e[t]))
		cum[t] = sum
	}
	return searchCum(cum, rng.Float64()*sum)
}
