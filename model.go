package ksir

import (
	"fmt"
	"slices"

	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Model bundles everything needed to turn raw text into topic space: the
// tokenizer, the vocabulary, the trained topic model and the fold-in
// inferencer. Train one offline on a representative corpus, then share it
// across streams and queries. A stream keeps the model it was created
// with; a model retrained when topic drift makes the old one stale (§3.1
// of the paper) serves the streams created over it.
type Model struct {
	tok   *textproc.Tokenizer
	vocab *textproc.Vocabulary
	tm    *topicmodel.Model
	inf   *topicmodel.Inferencer
	seed  int64
}

// ModelOption configures TrainModel.
type ModelOption func(*modelConfig)

type modelConfig struct {
	topics      int
	iterations  int
	seed        int64
	useBTM      bool
	minDocFreq  int64
	maxDocFrac  float64
	alpha, beta float64
}

// WithTopics sets the number of latent topics z (default 50, the paper's
// default).
func WithTopics(z int) ModelOption { return func(c *modelConfig) { c.topics = z } }

// WithIterations sets the Gibbs sweeps for training (default 100).
func WithIterations(n int) ModelOption { return func(c *modelConfig) { c.iterations = n } }

// WithSeed fixes the training RNG for reproducible models.
func WithSeed(seed int64) ModelOption { return func(c *modelConfig) { c.seed = seed } }

// WithBTM trains a biterm topic model instead of LDA. Use it for
// tweet-length texts, as the paper does for the Twitter corpus.
func WithBTM() ModelOption { return func(c *modelConfig) { c.useBTM = true } }

// WithPriors overrides the Dirichlet priors. The defaults (α = 50/z,
// β = 0.01, the paper's settings) suit z ≥ 50; with very few topics use a
// smaller α (e.g. 1) or the prior swamps the data and topics fail to
// separate.
func WithPriors(alpha, beta float64) ModelOption {
	return func(c *modelConfig) {
		c.alpha = alpha
		c.beta = beta
	}
}

// WithVocabPruning drops words appearing in fewer than minDocFreq documents
// or in more than maxDocFrac of all documents before training (the paper's
// stop/noise-word preprocessing). Defaults: 2 and 0.5.
func WithVocabPruning(minDocFreq int64, maxDocFrac float64) ModelOption {
	return func(c *modelConfig) {
		c.minDocFreq = minDocFreq
		c.maxDocFrac = maxDocFrac
	}
}

// TrainModel tokenizes the corpus, prunes the vocabulary, and trains a
// topic model (LDA by default, BTM with WithBTM) with the paper's priors
// α = 50/z, β = 0.01.
func TrainModel(texts []string, opts ...ModelOption) (*Model, error) {
	cfg := modelConfig{topics: 50, iterations: 100, minDocFreq: 2, maxDocFrac: 0.5}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("ksir: empty training corpus")
	}
	if cfg.topics < 2 {
		return nil, fmt.Errorf("ksir: need at least 2 topics, got %d", cfg.topics)
	}

	tok := textproc.NewTokenizer()
	corpus := textproc.NewCorpus(tok, texts)
	pruned, remap := corpus.Vocab.Prune(len(corpus.Docs), cfg.minDocFreq, cfg.maxDocFrac)
	if pruned.Size() < cfg.topics {
		return nil, fmt.Errorf("ksir: vocabulary too small after pruning (%d words for %d topics); provide more text or relax WithVocabPruning",
			pruned.Size(), cfg.topics)
	}
	docs := make([][]textproc.WordID, 0, len(corpus.Docs))
	for _, d := range corpus.Docs {
		var ids []textproc.WordID
		for _, tc := range d.Terms {
			if nid := remap[tc.Word]; nid >= 0 {
				for i := int32(0); i < tc.Count; i++ {
					ids = append(ids, nid)
				}
			}
		}
		docs = append(docs, ids)
	}

	var tm *topicmodel.Model
	var err error
	if cfg.useBTM {
		tm, _, err = topicmodel.TrainBTM(docs, topicmodel.BTMConfig{
			Topics: cfg.topics, VocabSize: pruned.Size(),
			Alpha: cfg.alpha, Beta: cfg.beta,
			Iterations: cfg.iterations, Seed: cfg.seed,
		})
	} else {
		tm, _, err = topicmodel.TrainLDA(docs, topicmodel.LDAConfig{
			Topics: cfg.topics, VocabSize: pruned.Size(),
			Alpha: cfg.alpha, Beta: cfg.beta,
			Iterations: cfg.iterations, Seed: cfg.seed,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("ksir: training failed: %w", err)
	}
	return &Model{
		tok:   tok,
		vocab: pruned,
		tm:    tm,
		inf:   topicmodel.NewInferencer(tm, cfg.seed),
		seed:  cfg.seed,
	}, nil
}

// Topics returns the number of latent topics z.
func (m *Model) Topics() int { return m.tm.Z }

// VocabSize returns the pruned vocabulary size.
func (m *Model) VocabSize() int { return m.vocab.Size() }

// TopWords returns the n highest-probability words of one topic — useful
// for inspecting what a trained topic means.
func (m *Model) TopWords(topic, n int) ([]string, error) {
	if topic < 0 || topic >= m.tm.Z {
		return nil, fmt.Errorf("ksir: topic %d out of range [0,%d)", topic, m.tm.Z)
	}
	type ww struct {
		w textproc.WordID
		p float64
	}
	all := make([]ww, m.vocab.Size())
	for w := 0; w < m.vocab.Size(); w++ {
		all[w] = ww{textproc.WordID(w), m.tm.TopicWord(topic, textproc.WordID(w))}
	}
	// Partial selection sort: n is small.
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].p > all[best].p {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		out = append(out, m.vocab.Word(all[i].w))
	}
	return out, nil
}

// tokenIDs maps raw text to in-vocabulary token IDs, allocating only the
// result.
func (m *Model) tokenIDs(text string) []textproc.WordID {
	var buf [idBufLen]textproc.WordID
	return slices.Clone(m.tok.AppendIDs(buf[:0], text, m.vocab))
}

// InferTopics returns the sparse topic distribution of a text, exposing the
// oracle for diagnostics and custom integrations.
func (m *Model) InferTopics(text string) (topics []int, probs []float64) {
	v := m.inf.InferDoc(m.tokenIDs(text))
	topics = make([]int, v.Len())
	probs = make([]float64, v.Len())
	for i := range v.Topics {
		topics[i] = int(v.Topics[i])
		probs[i] = v.Probs[i]
	}
	return topics, probs
}
