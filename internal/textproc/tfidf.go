package textproc

import (
	"math"
	"sort"
)

// SparseVec is a sparse vector over word (or topic) dimensions, sorted by
// index. It is the common currency of the TF-IDF and topic-space baselines.
type SparseVec struct {
	Idx []int32
	Val []float64
}

// NewSparseVec builds a normalized-order sparse vector from a map.
func NewSparseVec(m map[int32]float64) SparseVec {
	v := SparseVec{
		Idx: make([]int32, 0, len(m)),
		Val: make([]float64, 0, len(m)),
	}
	for i := range m {
		v.Idx = append(v.Idx, i)
	}
	sort.Slice(v.Idx, func(a, b int) bool { return v.Idx[a] < v.Idx[b] })
	for _, i := range v.Idx {
		v.Val = append(v.Val, m[i])
	}
	return v
}

// Dot returns the inner product of two sparse vectors.
func (v SparseVec) Dot(o SparseVec) float64 {
	var s float64
	i, j := 0, 0
	for i < len(v.Idx) && j < len(o.Idx) {
		switch {
		case v.Idx[i] < o.Idx[j]:
			i++
		case v.Idx[i] > o.Idx[j]:
			j++
		default:
			s += v.Val[i] * o.Val[j]
			i++
			j++
		}
	}
	return s
}

// Norm returns the Euclidean norm.
func (v SparseVec) Norm() float64 {
	var s float64
	for _, x := range v.Val {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two sparse vectors, 0 when either
// is zero.
func (v SparseVec) Cosine(o SparseVec) float64 {
	nv, no := v.Norm(), o.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(o) / (nv * no)
}

// TFIDF vectorizes documents with log-normalized TF-IDF weights
// (1 + log tf) · log(N / df), the scheme the TF-IDF baseline in §5.1 uses.
type TFIDF struct {
	vocab   *Vocabulary
	numDocs int
}

// NewTFIDF builds a vectorizer over a finished corpus snapshot.
func NewTFIDF(vocab *Vocabulary, numDocs int) *TFIDF {
	return &TFIDF{vocab: vocab, numDocs: numDocs}
}

// Vectorize maps a bag-of-words document to its TF-IDF vector. Words with
// zero document frequency (unseen in the corpus snapshot) are skipped.
func (t *TFIDF) Vectorize(d Document) SparseVec {
	v := SparseVec{
		Idx: make([]int32, 0, len(d.Terms)),
		Val: make([]float64, 0, len(d.Terms)),
	}
	for _, tc := range d.Terms {
		df := t.vocab.DocFreq(tc.Word)
		if df == 0 {
			continue
		}
		tf := 1 + math.Log(float64(tc.Count))
		idf := math.Log(float64(t.numDocs) / float64(df))
		if idf <= 0 {
			continue
		}
		v.Idx = append(v.Idx, int32(tc.Word))
		v.Val = append(v.Val, tf*idf)
	}
	return v
}
