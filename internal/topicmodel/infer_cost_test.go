package topicmodel

import (
	"fmt"
	"sync"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
)

// serviceModel is a model of the service's shape — z = 50 over 2 000 words,
// so φ is 800 KB and a walk over one word's column touches 50 cache lines —
// trained once per test binary from fixed seeds.
var serviceModel = sync.OnceValue(func() *Model {
	const z, v = 50, 2000
	docs := synthTopicalCorpus(z, v, 3000, 12, 17)
	m, _, err := TrainLDA(docs, LDAConfig{Topics: z, VocabSize: v, Iterations: 40, Seed: 17})
	if err != nil {
		panic(err)
	}
	return m
})

// BenchmarkInferDoc is the cost of one stream element's topic inference
// (ns/op and allocs/op are per document) at the three document lengths of
// the service's workloads: a short post, a post, a long citation-heavy text.
func BenchmarkInferDoc(b *testing.B) {
	m := serviceModel()
	inf := NewInferencer(m, 17)
	for _, tokens := range []int{5, 9, 45} {
		docs := synthTopicalCorpus(m.Z, m.V, 512, tokens, int64(tokens))
		b.Run(fmt.Sprintf("tokens=%d", tokens), func(b *testing.B) {
			b.ReportAllocs()
			var sink TopicVec
			for i := 0; i < b.N; i++ {
				sink = inf.InferDoc(docs[i%len(docs)])
			}
			_ = sink
		})
	}
}

// What fold-in still allocates is what it returns: the two slices of the
// TopicVec. Everything else — known words, assignments, counts, the list of
// topics in use, the dense distribution, the generator — lives in pooled
// scratch or on the stack. (The dense sampler allocated 28 times per
// InferDoc and 19 per InferDense here, a 4.9 KB rand.Source among them.)
func TestInferAllocationsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := serviceModel()
	inf := NewInferencer(m, 17)
	docs := synthTopicalCorpus(m.Z, m.V, 64, 9, 9)
	docs = append(docs, synthTopicalCorpus(m.Z, m.V, 64, 45, 45)...)
	for name, infer := range map[string]func([]textproc.WordID) TopicVec{
		"InferDoc":   inf.InferDoc,
		"InferDense": inf.InferDense,
	} {
		for _, doc := range docs { // grow the pooled scratch to the longest document
			infer(doc)
		}
		next := 0
		allocs := testing.AllocsPerRun(len(docs)-1, func() {
			infer(docs[next])
			next++
		})
		if allocs > 2 {
			t.Errorf("%s: %.1f allocations per document, want ≤ 2", name, allocs)
		}
	}
}
