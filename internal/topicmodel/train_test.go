package topicmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
)

// trainCase is one fixed training run: the synthTopicalCorpus of docs
// documents of tokens words each, over v words and z true topics, drawn
// with seed and trained at z topics for iter sweeps, with seed and the
// default priors.
type trainCase struct {
	name                     string
	z, v, docs, tokens, iter int
	seed                     int64
	want                     string // SHA-256 of trainedBits
}

// trainedBits hashes every bit a trainer returns: φ and p(z) in order, then
// each document vector's topics and probabilities.
func trainedBits(m *Model, vecs []TopicVec) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(m.Z))
	put(uint64(m.V))
	for _, p := range m.Phi {
		put(math.Float64bits(p))
	}
	for _, p := range m.PTopic {
		put(math.Float64bits(p))
	}
	for _, v := range vecs {
		put(uint64(v.Len()))
		for i, t := range v.Topics {
			put(uint64(t))
			put(math.Float64bits(v.Probs[i]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runGolden(t *testing.T, cases []trainCase, train func([][]textproc.WordID, trainCase) (*Model, []TopicVec, error)) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			docs := synthTopicalCorpus(c.z, c.v, c.docs, c.tokens, c.seed)
			m, vecs, err := train(docs, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := trainedBits(m, vecs); got != c.want {
				t.Errorf("trained model's bits moved: SHA-256 %s, want %s", got, c.want)
			}
		})
	}
}

// TestTrainLDAGolden pins TrainLDA's output bit for bit on three corpora:
// short documents and 45-token ones at z = 50, and z = 250. The sampler's
// memory layout may change; its products, divisions, sums and draws may
// not, since every model fingerprint, answer and data directory follows
// from them.
func TestTrainLDAGolden(t *testing.T) {
	runGolden(t, []trainCase{
		{"z=50/tokens=9", 50, 2000, 1500, 9, 10, 11, "53eb8a989bcc1882993c057337e81d704c2b02af1ac3f9fb5a5bbe55086a93b1"},
		{"z=50/tokens=45", 50, 3000, 600, 45, 10, 12, "3ff85c346e2112b0026d81a0b5c6f91b2f1d3c3e9e42955232b010cafd7e38bc"},
		{"z=250/tokens=20", 250, 3000, 300, 20, 10, 13, "9096145d3794a253e197e9b9fd24c68b8da28304347face46a32f2d794fcbdc6"},
	}, func(docs [][]textproc.WordID, c trainCase) (*Model, []TopicVec, error) {
		return TrainLDA(docs, LDAConfig{Topics: c.z, VocabSize: c.v, Iterations: c.iter, Seed: c.seed})
	})
}

// TestTrainBTMGolden is TestTrainLDAGolden for TrainBTM.
func TestTrainBTMGolden(t *testing.T) {
	runGolden(t, []trainCase{
		{"z=50/tokens=9", 50, 2000, 800, 9, 10, 21, "ace9e38cf7cb2681b97d4713915ed574d6980610b2c7521ce7a47c767f3ca83e"},
		{"z=50/tokens=45", 50, 3000, 80, 45, 10, 22, "4a007389b28315d3ea1b1b94098a1ae96cc2550436678bbb22a7ca79c66bdcc1"},
		{"z=250/tokens=20", 250, 3000, 80, 20, 5, 23, "d5c1b7787ed717e00adb662d3d4a198eaa86a9af860979ead1a8fca06169e5c9"},
	}, func(docs [][]textproc.WordID, c trainCase) (*Model, []TopicVec, error) {
		return TrainBTM(docs, BTMConfig{Topics: c.z, VocabSize: c.v, Iterations: c.iter, Seed: c.seed})
	})
}

// BenchmarkTrainLDA times ten sweeps of TrainLDA at the paper's default
// z = 50 and its largest z = 250, on tweet-length and on 45-token
// documents; 135 000 tokens at z = 50 and 22 500 at z = 250, so one
// iteration stays well under a second.
func BenchmarkTrainLDA(b *testing.B) {
	for _, c := range []struct{ z, v, docs, tokens int }{
		{50, 2000, 15000, 9},
		{50, 3000, 3000, 45},
		{250, 3000, 2500, 9},
		{250, 3000, 500, 45},
	} {
		b.Run(fmt.Sprintf("z=%d/tokens=%d", c.z, c.tokens), func(b *testing.B) {
			docs := synthTopicalCorpus(c.z, c.v, c.docs, c.tokens, 1)
			cfg := LDAConfig{Topics: c.z, VocabSize: c.v, Iterations: 10, Seed: 1}
			b.ResetTimer()
			for range b.N {
				if _, _, err := TrainLDA(docs, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*10*c.docs*c.tokens*c.z), "ns/token-topic")
		})
	}
}

// BenchmarkTrainBTM times ten sweeps of TrainBTM at z = 50 over 9-token
// documents (36 biterms each).
func BenchmarkTrainBTM(b *testing.B) {
	b.Run("z=50", func(b *testing.B) {
		docs := synthTopicalCorpus(50, 2000, 2000, 9, 1)
		cfg := BTMConfig{Topics: 50, VocabSize: 2000, Iterations: 10, Seed: 1}
		b.ResetTimer()
		for range b.N {
			if _, _, err := TrainBTM(docs, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTrainerConfigRefused holds both trainers to refusing, with an error
// that names the field, priors and counts the sampler cannot use; 0 still
// means the default.
func TestTrainerConfigRefused(t *testing.T) {
	docs := synthCorpus(10, 5, 1)
	for _, c := range []struct {
		name               string
		alpha, beta        float64
		iterations, window int
		field              string
	}{
		{"negative β", 0.5, -0.01, 1, 0, "Beta"},
		{"infinite β", 0.5, math.Inf(1), 1, 0, "Beta"},
		{"NaN β", 0.5, math.NaN(), 1, 0, "Beta"},
		{"V·β overflows", 0.5, math.MaxFloat64, 1, 0, "Beta"},
		{"negative α", -1, 0.01, 1, 0, "Alpha"},
		{"NaN α", math.NaN(), 0.01, 1, 0, "Alpha"},
		{"infinite α", math.Inf(1), 0.01, 1, 0, "Alpha"},
		{"z·α overflows", math.MaxFloat64, 0.01, 1, 0, "Alpha"},
		{"negative sweeps", 0.5, 0.01, -3, 0, "Iterations"},
		{"negative window", 0.5, 0.01, 1, -1, "WindowSize"},
	} {
		if c.window == 0 {
			_, _, err := TrainLDA(docs, LDAConfig{Topics: 2, VocabSize: 10, Alpha: c.alpha, Beta: c.beta, Iterations: c.iterations})
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("TrainLDA, %s: error %v, want one naming %s", c.name, err, c.field)
			}
		}
		_, _, err := TrainBTM(docs, BTMConfig{Topics: 2, VocabSize: 10, Alpha: c.alpha, Beta: c.beta, Iterations: c.iterations, WindowSize: c.window})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("TrainBTM, %s: error %v, want one naming %s", c.name, err, c.field)
		}
	}
}
