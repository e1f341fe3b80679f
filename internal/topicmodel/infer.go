package topicmodel

import (
	"sync"

	"github.com/social-streams/ksir/internal/textproc"
)

// InferVersion names the fold-in sampler. A topic vector is a pure function
// of (model, seed, document, InferVersion), and WAL records and pending
// posts hold raw text that recovery infers again, so persisted state is
// only ever reopened by the sampler that wrote it: the version is part of
// the model fingerprint in every stream manifest. It covers everything
// below that decides a vector — the four fold-in constants, the
// initialization law, the order the two buckets and their topics are
// walked in, the generator and how docSeed seeds it, and Truncate's
// selection and renormalization. Change any of those and bump it;
// TestInferVersionGolden fails until you do.
//
// Version 1 was the dense sampler (all z topics per step, math/rand);
// version 2 is the sparse two-bucket sampler over splitmix64.
const InferVersion = 2

const (
	// foldAlpha is the fold-in document-topic prior. Unlike training
	// (α = 50/z over long corpora), fold-in must not let the prior swamp the
	// handful of tokens in a tweet or a keyword query, and a small α yields
	// the peaked per-element distributions (< 2 topics on average) that §4
	// reports and the ranked-list pruning exploits.
	foldAlpha = 0.1
	// foldSweeps is the number of Gibbs sweeps after initialization.
	foldSweeps = 20
	// An element keeps at most elemMaxTopics topics of probability at least
	// elemMinProb (TopicVec.Truncate).
	elemMaxTopics = 4
	elemMinProb   = 0.05
)

// Inferencer folds unseen documents (stream elements, keyword queries) into
// a trained model. The paper's architecture (Figure 4) runs this "topic
// inference" step on each arriving bucket and on each user query; it is
// "rather standard (e.g., Gibbs sampling)" per §4.
//
// Inferencer is safe for concurrent use: each call draws from its own
// generator seeded by the document's content, which also makes inference
// deterministic for a given (model, seed, document).
type Inferencer struct {
	model *Model
	seed  int64
	// wordMass[w] = Σ_t φ_tw and initMass[w] = Σ_t p(t)·φ_tw, each summed in
	// topic order: the normalizers of the two draws that would otherwise
	// need all z topics evaluated first.
	wordMass []float64
	initMass []float64
	topics   []int32   // 0 … z-1: the Topics of every dense result
	scratch  sync.Pool // of *foldScratch
}

// foldScratch is the per-document state of one fold-in. The z-long slices
// are sized once; the per-token ones grow to the longest document seen.
type foldScratch struct {
	words  []textproc.WordID
	assign []int32   // topic of each token
	nz     []int32   // backing for the list of topics in use (at most one per token)
	q      []float64 // backing for the count bucket's per-topic masses
	n      []int32   // n[t]: tokens assigned to topic t
	dense  []float64 // the inferred distribution over all z topics
}

// NewInferencer returns an Inferencer over m. The model must be valid
// (Model.Validate) and is not modified; its Phi and PTopic must not change
// afterwards.
func NewInferencer(m *Model, seed int64) *Inferencer {
	inf := &Inferencer{
		model:    m,
		seed:     seed,
		wordMass: make([]float64, m.V),
		initMass: make([]float64, m.V),
		topics:   make([]int32, m.Z),
	}
	for t := range inf.topics {
		inf.topics[t] = int32(t)
	}
	for t := 0; t < m.Z; t++ {
		for w, p := range m.Phi[t*m.V : (t+1)*m.V] {
			inf.wordMass[w] += p
			inf.initMass[w] += float64(m.PTopic[t] * p) // rounded before the add, as walk does
		}
	}
	inf.scratch.New = func() any {
		return &foldScratch{n: make([]int32, m.Z), dense: make([]float64, m.Z)}
	}
	return inf
}

// Model returns the underlying trained model.
func (inf *Inferencer) Model() *Model { return inf.model }

// InferDoc returns the truncated topic distribution of a token-ID document.
// Unknown words (id ≥ V) are skipped. An empty or all-unknown document
// yields an empty TopicVec.
func (inf *Inferencer) InferDoc(doc []textproc.WordID) TopicVec {
	sc := inf.fold(doc)
	if sc == nil {
		return TopicVec{}
	}
	v := TopicVec{Topics: inf.topics, Probs: sc.dense}.Truncate(elemMaxTopics, elemMinProb)
	inf.scratch.Put(sc)
	return v
}

// InferDense is InferDoc without truncation, returning the full
// z-dimensional distribution. Query vectors use this (queries may weight
// several topics; §3.2 normalizes them to sum to 1).
func (inf *Inferencer) InferDense(doc []textproc.WordID) TopicVec {
	sc := inf.fold(doc)
	if sc == nil {
		return TopicVec{}
	}
	v := TopicVec{
		Topics: append([]int32(nil), inf.topics...),
		Probs:  append([]float64(nil), sc.dense...),
	}
	inf.scratch.Put(sc)
	return v
}

// fold infers the in-vocabulary words of doc into a pooled scratch and
// returns it with dense filled (every entry positive, since α > 0); the
// caller copies what it keeps and puts the scratch back. It returns nil for
// a document with no known word.
func (inf *Inferencer) fold(doc []textproc.WordID) *foldScratch {
	sc := inf.scratch.Get().(*foldScratch)
	sc.words = sc.words[:0]
	for _, w := range doc {
		if int(w) < inf.model.V {
			sc.words = append(sc.words, w)
		}
	}
	if len(sc.words) == 0 {
		inf.scratch.Put(sc)
		return nil
	}
	inf.foldIn(sc)
	return sc
}

// foldIn runs collapsed Gibbs sampling over sc.words with the topic-word
// distributions held fixed at the trained Phi, and leaves the smoothed
// document-topic distribution in sc.dense.
//
// A step redraws one token's topic from p(t) ∝ (n_t + α)·φ_tw, which splits
// exactly into n_t·φ_tw + α·φ_tw (SparseLDA's buckets, with φ fixed): a
// count bucket over the few topics the document currently uses, and a prior
// bucket whose mass α·Σ_t φ_tw is known per word in advance. A step reads
// φ for the topics in use only; a draw that lands in the prior bucket then
// walks the word's column until it finds its topic.
func (inf *Inferencer) foldIn(sc *foldScratch) {
	m := inf.model
	words := sc.words
	if cap(sc.assign) < len(words) {
		sc.assign = make([]int32, len(words))
		sc.nz = make([]int32, len(words))
		sc.q = make([]float64, len(words))
	}
	assign := sc.assign[:len(words)]
	c := counts{n: sc.n, nz: sc.nz[:0]}
	clear(c.n)
	rng := splitmix64(inf.docSeed(words))

	// Initialize proportional to p(z)·p(w|z) for faster mixing than uniform.
	for j, w := range words {
		var t int32
		if mass := inf.initMass[w]; mass > 0 {
			t = m.walk(w, rng.float64()*mass, m.PTopic, 0)
		} else {
			t = int32(rng.float64() * float64(m.Z))
		}
		assign[j] = t
		c.add(t)
	}

	for it := 0; it < foldSweeps; it++ {
		for j, w := range words {
			old := assign[j]
			c.remove(old)
			q := sc.q[:len(c.nz)]
			count, prior := inf.buckets(q, c, w)
			if total := count + prior; total > 0 {
				assign[j] = m.pick(q, c.nz, w, rng.float64()*total, old)
			}
			c.add(assign[j])
		}
	}

	denom := float64(len(words)) + float64(m.Z)*foldAlpha
	for t, n := range c.n {
		sc.dense[t] = (float64(n) + foldAlpha) / denom
	}
}

// counts is the document-topic state of a fold-in: n[t] tokens are assigned
// to topic t, and nz lists the topics with n[t] > 0 in no particular order.
type counts struct {
	n  []int32
	nz []int32
}

func (c *counts) add(t int32) {
	if c.n[t] == 0 {
		c.nz = append(c.nz, t)
	}
	c.n[t]++
}

func (c *counts) remove(t int32) {
	c.n[t]--
	if c.n[t] > 0 {
		return
	}
	last := len(c.nz) - 1
	for i, u := range c.nz {
		if u == t {
			c.nz[i] = c.nz[last]
			break
		}
	}
	c.nz = c.nz[:last]
}

// buckets returns the masses of the two buckets for word w under counts c:
// the count bucket's Σ n_t·φ_tw over the topics in use, leaving the term of
// topic c.nz[i] in q[i], and the prior bucket's α·Σ_t φ_tw.
func (inf *Inferencer) buckets(q []float64, c counts, w textproc.WordID) (count, prior float64) {
	m := inf.model
	col := m.Phi[int(w):]
	for i, t := range c.nz {
		// Rounded before the add (no fused multiply-add), so that pick's
		// running sum over q ends exactly on count.
		q[i] = float64(float64(c.n[t]) * col[int(t)*m.V])
		count += q[i]
	}
	return count, foldAlpha * inf.wordMass[w]
}

// pick maps u ∈ [0, count+prior) to a topic: the count bucket occupies
// [0, count) in nz order with the widths in q, the prior bucket the rest
// with widths α·φ_tw, in topic order starting at from.
func (m *Model) pick(q []float64, nz []int32, w textproc.WordID, u float64, from int32) int32 {
	var count float64
	for i, x := range q {
		count += x
		if u < count {
			return nz[i]
		}
	}
	return m.walk(w, (u-count)/foldAlpha, nil, from)
}

// walk returns the topic at which the running sum of weight[t]·φ_tw (of φ_tw
// alone for a nil weight), taken over the topics from, from+1, … and around
// to from-1, first exceeds r. Any starting point gives every topic its own
// width, so the law does not depend on it; the cost does: a token that is
// alone on its topic draws from the prior bucket sweep after sweep and
// mostly lands where it was, which a walk starting there finds in one step.
// The total of such a walk equals the word's precomputed mass up to rounding
// only (exactly, from topic 0), so an r at or past the total gets the last
// topic of positive probability.
func (m *Model) walk(w textproc.WordID, r float64, weight []float64, from int32) int32 {
	var acc float64
	col := m.Phi[int(w):]
	t, last := int(from), from
	for range m.Z {
		p := col[t*m.V]
		if weight != nil {
			p = float64(weight[t] * p)
		}
		if p > 0 {
			acc += p
			if r < acc {
				return int32(t)
			}
			last = int32(t)
		}
		if t++; t == m.Z {
			t = 0
		}
	}
	return last
}

// splitmix64 is Steele, Lea and Flood's SplitMix64: 64 bits of state that
// live in a register, and an output function strong enough that seeds one
// FNV step apart give unrelated streams.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// float64 returns a uniform draw from [0, 1) with 53 random bits.
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// docSeed derives a deterministic per-document seed from the base seed and
// the word sequence (FNV-1a over word IDs).
func (inf *Inferencer) docSeed(words []textproc.WordID) uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset) ^ uint64(inf.seed)
	for _, w := range words {
		h ^= uint64(uint32(w))
		h *= prime
	}
	return h
}
