package topicmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
)

// denseFoldIn is the fold-in sampler of InferVersion 1, kept here as the
// reference the sparse sampler is held to: it evaluates the conditional
// (n_t + α)·φ_tw over all z topics at every step and draws with math/rand.
func denseFoldIn(m *Model, seed int64, words []textproc.WordID) []float64 {
	z := m.Z
	rng := rand.New(rand.NewSource(int64((&Inferencer{seed: seed}).docSeed(words))))
	nTopic := make([]int32, z)
	assign := make([]int32, len(words))
	probs := make([]float64, z)
	for j, w := range words {
		var sum float64
		for t := 0; t < z; t++ {
			probs[t] = m.PTopic[t] * m.TopicWord(t, w)
			sum += probs[t]
		}
		t := rng.Intn(z)
		if sum > 0 {
			t = sampleDiscrete(rng, probs, sum)
		}
		assign[j] = int32(t)
		nTopic[t]++
	}
	for it := 0; it < foldSweeps; it++ {
		for j, w := range words {
			nTopic[assign[j]]--
			sum := denseConditional(probs, m, nTopic, w)
			if sum > 0 {
				assign[j] = int32(sampleDiscrete(rng, probs, sum))
			}
			nTopic[assign[j]]++
		}
	}
	dense := make([]float64, z)
	denom := float64(len(words)) + float64(z)*foldAlpha
	for t := range dense {
		dense[t] = (float64(nTopic[t]) + foldAlpha) / denom
	}
	return dense
}

// denseConditional fills probs[t] = (n_t + α)·φ_tw and returns their sum.
func denseConditional(probs []float64, m *Model, n []int32, w textproc.WordID) (sum float64) {
	for t := range probs {
		probs[t] = (float64(n[t]) + foldAlpha) * m.TopicWord(t, w)
		sum += probs[t]
	}
	return sum
}

// The two buckets are the dense conditional, regrouped: for random counts
// and words, the width each topic gets — its entry of the count bucket, if
// it has one, plus α·φ_tw of the prior bucket — is (n_t + α)·φ_tw / Σ, and
// pick returns that topic for a draw inside either of its two intervals,
// wherever the prior bucket's walk starts.
func TestTwoBucketsAreTheDenseConditional(t *testing.T) {
	m := serviceModel()
	inf := NewInferencer(m, 1)
	rng := rand.New(rand.NewSource(7))
	c := counts{n: make([]int32, m.Z)}
	q := make([]float64, m.Z)
	dense := make([]float64, m.Z)
	width := make([]float64, m.Z)
	for trial := 0; trial < 2000; trial++ {
		clear(c.n)
		c.nz = c.nz[:0]
		for used := rng.Intn(7); used > 0; used-- {
			topic := int32(rng.Intn(m.Z))
			for tokens := 1 + rng.Intn(5); tokens > 0; tokens-- {
				c.add(topic)
			}
		}
		w := textproc.WordID(rng.Intn(m.V))
		from := int32(rng.Intn(m.Z))

		q := q[:len(c.nz)]
		count, prior := inf.buckets(q, c, w)
		total := count + prior
		sum := denseConditional(dense, m, c.n, w)
		if math.Abs(total-sum) > 1e-12*sum {
			t.Fatalf("trial %d: the buckets weigh %v, the dense conditional %v", trial, total, sum)
		}

		clear(width)
		var lo float64
		for i, topic := range c.nz {
			if got := m.pick(q, c.nz, w, lo+q[i]/2, from); q[i] > 0 && got != topic {
				t.Fatalf("trial %d: a draw inside topic %d's count interval picked %d", trial, topic, got)
			}
			width[topic] += q[i]
			lo += q[i]
		}
		for i := 0; i < m.Z; i++ {
			topic := (int(from) + i) % m.Z
			p := foldAlpha * m.TopicWord(topic, w)
			if got := m.pick(q, c.nz, w, lo+p/2, from); p > 0 && int(got) != topic {
				t.Fatalf("trial %d: a draw inside topic %d's prior interval picked %d", trial, topic, got)
			}
			width[topic] += p
			lo += p
		}
		for topic := range width {
			if got, want := width[topic]/total, dense[topic]/sum; math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d: topic %d has probability %v under the buckets, %v under the dense conditional", trial, topic, got, want)
			}
		}
	}
}

// observed is what the engine sees of a sampler over a document set: the
// topic each element is filed under first, and how many lists it enters.
type observed struct {
	argmax []int32
	topics []int
}

func observe(docs [][]textproc.WordID, infer func([]textproc.WordID) TopicVec) observed {
	o := observed{argmax: make([]int32, len(docs)), topics: make([]int, len(docs))}
	for i, doc := range docs {
		v := infer(doc)
		best := 0
		for j, p := range v.Probs {
			if p > v.Probs[best] {
				best = j
			}
		}
		o.argmax[i], o.topics[i] = v.Topics[best], v.Len()
	}
	return o
}

// The sparse sampler draws from the law the dense one drew from: over
// 20 000 documents it differs from a dense run by no more than a second
// dense run with another seed does. The yardstick is measured, not assumed:
// per document, how two dense runs disagree gives the standard error of
// each statistic, and the sparse run must sit within four of them — in the
// share of documents filed under a different argmax topic, in every bin of
// the argmax-topic histogram, and in mean topics per element. (A sampler
// whose prior bucket weighs 1.5× what it should is off by 20 standard
// errors in the first and in the last.)
func TestSparseSamplerKeepsTheLaw(t *testing.T) {
	m := serviceModel()
	perLength := 5000
	if raceEnabled {
		perLength /= 4 // the dense reference runs 8× slower under the detector, which has nothing to find in it
	}
	var docs [][]textproc.WordID
	for _, tokens := range []int{3, 5, 9, 14} {
		docs = append(docs, synthTopicalCorpus(m.Z, m.V, perLength, tokens, int64(100+tokens))...)
	}
	denseRun := func(seed int64) observed {
		return observe(docs, func(doc []textproc.WordID) TopicVec {
			return NewTopicVec(denseFoldIn(m, seed, doc)).Truncate(elemMaxTopics, elemMinProb)
		})
	}
	dense, other, sparse := denseRun(1), denseRun(2), observe(docs, NewInferencer(m, 1).InferDoc)

	var (
		moved, movedDense    float64                // documents whose argmax differs from dense's
		topics, topicsSquare float64                // Σ difference in topics per element: sparse, and squared for other
		shift                = make([]float64, m.Z) // net documents bin t gains from dense to sparse
		churn                = make([]float64, m.Z) // documents entering or leaving bin t from dense to other
	)
	for i := range docs {
		if a, b := dense.argmax[i], other.argmax[i]; a != b {
			movedDense++
			churn[a]++
			churn[b]++
		}
		if a, b := dense.argmax[i], sparse.argmax[i]; a != b {
			moved++
			shift[a]--
			shift[b]++
		}
		d := float64(other.topics[i] - dense.topics[i])
		topicsSquare += d * d
		topics += float64(sparse.topics[i] - dense.topics[i])
	}
	n := float64(len(docs))
	t.Logf("argmax differs from a dense run on %.4f of documents (a second dense run: %.4f); mean topics per element differ by %+.4f (standard error %.4f)",
		moved/n, movedDense/n, topics/n, math.Sqrt(topicsSquare)/n)
	if moved > movedDense+4*math.Sqrt(2*movedDense) {
		t.Errorf("argmax topic: sparse differs from dense on %.0f documents, a second dense run on %.0f", moved, movedDense)
	}
	for topic := range shift {
		if math.Abs(shift[topic]) > 4*math.Sqrt(max(churn[topic], 1)) {
			t.Errorf("argmax histogram: topic %d moves by %+.0f documents from dense to sparse, %.0f enter or leave it between dense runs",
				topic, shift[topic], churn[topic])
		}
	}
	if math.Abs(topics) > 4*math.Sqrt(topicsSquare) {
		t.Errorf("mean topics per element: sparse differs from dense by %+.4f, the standard error between dense runs is %.4f",
			topics/n, math.Sqrt(topicsSquare)/n)
	}
}

// goldenModel is written out by formula — six topics owning two words each
// of twelve, an uneven p(z) — so that the golden vectors below depend on the
// sampler alone, not on a trainer or on math/rand.
func goldenModel() *Model {
	const z, v = 6, 12
	m := &Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
	for t := 0; t < z; t++ {
		row := m.Phi[t*v : (t+1)*v]
		var sum float64
		for w := range row {
			row[w] = 1
			if w/2 == t {
				row[w] = 40
			}
			if (w+t)%5 == 0 {
				row[w] += 3
			}
			sum += row[w]
		}
		for w := range row {
			row[w] /= sum
		}
		m.PTopic[t] = float64(t+1) / 21
	}
	return m
}

// The vectors of InferVersion 2, float for float. Persisted state is only
// reopened by the sampler that wrote it (the version is in every stream's
// model fingerprint), so a change that moves any of these — a constant, the
// generator or its seeding, the order a bucket is walked in, Truncate —
// must come with a new InferVersion; then regenerate the pairs from the
// "got" lines this test prints.
func TestInferVersionGolden(t *testing.T) {
	long := make([]textproc.WordID, 24)
	for i := range long {
		long[i] = textproc.WordID(i * 7 % 12)
	}
	golden := []struct {
		doc   []textproc.WordID
		dense bool
		want  TopicVec
	}{
		{doc: []textproc.WordID{0},
			want: TopicVec{Topics: []int32{0, 1, 2, 3}, Probs: []float64{0.7857142857142857, 0.07142857142857142, 0.07142857142857142, 0.07142857142857142}}},
		{doc: []textproc.WordID{2, 3, 2},
			want: TopicVec{Topics: []int32{1}, Probs: []float64{1}}},
		{doc: []textproc.WordID{0, 1, 4, 5, 8},
			want: TopicVec{Topics: []int32{0, 2}, Probs: []float64{0.4038461538461539, 0.5961538461538461}}},
		{doc: []textproc.WordID{10, 11, 10, 99, 6},
			want: TopicVec{Topics: []int32{3, 5}, Probs: []float64{0.2619047619047619, 0.738095238095238}}},
		{doc: []textproc.WordID{0, 2, 4, 6, 8, 10},
			want: TopicVec{Topics: []int32{0, 3, 5}, Probs: []float64{0.4920634920634921, 0.33333333333333337, 0.17460317460317462}}},
		{doc: []textproc.WordID{1, 3, 5, 7, 9, 11, 0},
			want: TopicVec{Topics: []int32{0, 2, 3}, Probs: []float64{0.5616438356164383, 0.2876712328767123, 0.1506849315068493}}},
		{doc: long,
			want: TopicVec{Topics: []int32{0, 1, 2, 3}, Probs: []float64{0.20098039215686272, 0.34803921568627455, 0.20098039215686272, 0.25}}},
		{doc: []textproc.WordID{6, 7, 1}, dense: true,
			want: TopicVec{Topics: []int32{0, 1, 2, 3, 4, 5}, Probs: []float64{0.02777777777777778, 0.02777777777777778, 0.02777777777777778, 0.5833333333333334, 0.3055555555555556, 0.02777777777777778}}},
	}
	if InferVersion != 2 {
		t.Fatalf("InferVersion is %d: regenerate the golden pairs for it and update this check", InferVersion)
	}
	inf := NewInferencer(goldenModel(), 42)
	for _, g := range golden {
		got := inf.InferDoc(g.doc)
		if g.dense {
			got = inf.InferDense(g.doc)
		}
		if !reflect.DeepEqual(got, g.want) {
			t.Errorf("the sampler's output changed — bump InferVersion (a data directory must not be replayed into different vectors):\n doc %v dense=%v\n got TopicVec{Topics: %#v, Probs: %#v}\nwant TopicVec{Topics: %#v, Probs: %#v}",
				g.doc, g.dense, got.Topics, got.Probs, g.want.Topics, g.want.Probs)
		}
	}
}
