package topicmodel

import (
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
)

// synthCorpus builds a corpus with two disjoint "true" topics: words 0..4
// appear only in even docs, words 5..9 only in odd docs. Any sane topic
// model must separate them.
func synthCorpus(nDocs, docLen int, seed int64) [][]textproc.WordID {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]textproc.WordID, nDocs)
	for d := range docs {
		base := 0
		if d%2 == 1 {
			base = 5
		}
		doc := make([]textproc.WordID, docLen)
		for j := range doc {
			doc[j] = textproc.WordID(base + rng.Intn(5))
		}
		docs[d] = doc
	}
	return docs
}

// synthTopicalCorpus is synthCorpus at service scale: z true topics over a
// vocabulary of v words, each topic owning a contiguous slice of it with
// Zipf-like weights, and a document mixing one or two topics with a tenth of
// its words drawn from the whole vocabulary — so that a model trained on it
// has the shape fold-in meets in the service (φ far larger than L1, most
// words likely under a few topics, some under none in particular).
func synthTopicalCorpus(z, v, nDocs, docLen int, seed int64) [][]textproc.WordID {
	rng := rand.New(rand.NewSource(seed))
	per := v / z
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(per-1))
	docs := make([][]textproc.WordID, nDocs)
	for d := range docs {
		topics := [2]int{rng.Intn(z), rng.Intn(z)}
		if rng.Intn(2) == 0 {
			topics[1] = topics[0]
		}
		doc := make([]textproc.WordID, docLen)
		for j := range doc {
			if rng.Intn(10) == 0 {
				doc[j] = textproc.WordID(rng.Intn(v))
				continue
			}
			doc[j] = textproc.WordID(topics[rng.Intn(2)]*per + int(zipf.Uint64()))
		}
		docs[d] = doc
	}
	return docs
}

func TestTrainLDARecoverstopics(t *testing.T) {
	docs := synthCorpus(100, 20, 1)
	m, vecs, err := TrainLDA(docs, LDAConfig{Topics: 2, VocabSize: 10, Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(vecs) != len(docs) {
		t.Fatalf("got %d doc vecs", len(vecs))
	}
	// Identify which latent topic corresponds to the even-doc vocabulary by
	// checking where word 0 has the most mass.
	evenTopic := 0
	if m.TopicWord(1, 0) > m.TopicWord(0, 0) {
		evenTopic = 1
	}
	oddTopic := 1 - evenTopic
	// Topic-word separation: the even topic must put most of its mass on
	// words 0-4, the odd topic on words 5-9.
	var evenMass, oddMass float64
	for w := 0; w < 5; w++ {
		evenMass += m.TopicWord(evenTopic, textproc.WordID(w))
		oddMass += m.TopicWord(oddTopic, textproc.WordID(w))
	}
	if evenMass < 0.9 {
		t.Errorf("even topic mass on its words = %v, want > 0.9", evenMass)
	}
	if oddMass > 0.1 {
		t.Errorf("odd topic leaked mass %v onto even words", oddMass)
	}
	// Document separation.
	correct := 0
	for d, v := range vecs {
		want := evenTopic
		if d%2 == 1 {
			want = oddTopic
		}
		if v.Prob(int32(want)) > 0.5 {
			correct++
		}
	}
	if correct < 95 {
		t.Errorf("only %d/100 docs assigned to their true topic", correct)
	}
}

func TestTrainLDADeterministic(t *testing.T) {
	docs := synthCorpus(20, 10, 2)
	cfg := LDAConfig{Topics: 2, VocabSize: 10, Iterations: 10, Seed: 7}
	m1, _, err := TrainLDA(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := TrainLDA(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Phi {
		if m1.Phi[i] != m2.Phi[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestTrainLDAErrors(t *testing.T) {
	if _, _, err := TrainLDA(nil, LDAConfig{Topics: 0, VocabSize: 5}); err == nil {
		t.Error("zero topics accepted")
	}
	if _, _, err := TrainLDA(nil, LDAConfig{Topics: 2, VocabSize: 0}); err == nil {
		t.Error("zero vocab accepted")
	}
	docs := [][]textproc.WordID{{99}}
	if _, _, err := TrainLDA(docs, LDAConfig{Topics: 2, VocabSize: 5, Iterations: 1}); err == nil {
		t.Error("out-of-vocab word accepted")
	}
}

func TestLDADefaultPriors(t *testing.T) {
	cfg := LDAConfig{Topics: 50, VocabSize: 10}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 1.0 { // 50/z with z=50
		t.Errorf("Alpha = %v, want 1", cfg.Alpha)
	}
	if cfg.Beta != 0.01 {
		t.Errorf("Beta = %v, want 0.01", cfg.Beta)
	}
	if cfg.Iterations != 100 {
		t.Errorf("Iterations = %v, want 100", cfg.Iterations)
	}
}

func TestPTopicIsDistribution(t *testing.T) {
	docs := synthCorpus(30, 10, 3)
	m, _, err := TrainLDA(docs, LDAConfig{Topics: 3, VocabSize: 10, Iterations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, p := range m.PTopic {
		if p < 0 {
			t.Fatalf("negative PTopic %v", p)
		}
		s += p
	}
	if s < 0.999 || s > 1.001 {
		t.Errorf("PTopic sums to %v", s)
	}
}
