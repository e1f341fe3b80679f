package score

import (
	"github.com/social-streams/ksir/internal/flat"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// topicPair is one topic the query vector (position qi) and an element
// (position ej) share, with positive query mass.
type topicPair struct{ qi, ej int32 }

// Probe is the element-side half of a marginal gain Δ(e|S) under one query
// vector x: everything that does not depend on S. Scorer.Prepare computes
// it once per element; every candidate set considering e (MTTS keeps
// O(log k / ε) of them) then only reads its own coverage against it.
type Probe struct {
	Elem *stream.Element
	// Delta is δ(e, x) = f({e}, x), bit-identical to Scorer.Score(e, x).
	Delta float64

	sigma    []float64         // Elem's σ cache (Scorer.build's layout)
	children []*stream.Element // I_t(e) in ascending ID order (the window's own slice)
	pairs    []topicPair       // ascending qi
	// childP[p·|children| + c] = p_i(e ⇝ c) for pairs[p]'s topic i.
	childP []float64
}

// ProbeBuf is the storage probes are carved from. A probe stays valid until
// the Reset of the buffer it was prepared into.
type ProbeBuf struct {
	pairs  []topicPair
	childP []float64
}

// Reset invalidates every probe prepared into b and reuses their storage.
func (b *ProbeBuf) Reset() { b.pairs, b.childP = b.pairs[:0], b.childP[:0] }

// Footprint returns the bytes of storage the buffer retains across Reset.
func (b *ProbeBuf) Footprint() int { return 8*cap(b.pairs) + 8*cap(b.childP) }

// Prepare computes e's probe for query vector x into b. The walk over the
// shared topics and over I_t(e) is the one Score does, in the same order, so
// Delta costs nothing extra and the per-child products are resolved once
// instead of once per candidate set.
func (s *Scorer) Prepare(b *ProbeBuf, e *stream.Element, x topicmodel.TopicVec) Probe {
	return s.prepare(b, e, s.ensureCached(e), s.win.ChildrenView(e.ID), x)
}

func (s *Scorer) prepare(b *ProbeBuf, e *stream.Element, sigma []float64, children []*stream.Element, x topicmodel.TopicVec) Probe {
	p := Probe{Elem: e, sigma: sigma, children: children}
	p0, c0 := len(b.pairs), len(b.childP)
	i, j := 0, 0
	for i < len(x.Topics) && j < len(e.Topics.Topics) {
		switch {
		case x.Topics[i] < e.Topics.Topics[j]:
			i++
		case x.Topics[i] > e.Topics.Topics[j]:
			j++
		default:
			xi, pe := x.Probs[i], e.Topics.Probs[j]
			var sum float64
			for _, c := range p.children {
				pc := c.Topics.Prob(x.Topics[i])
				sum += pc
				if xi > 0 {
					b.childP = append(b.childP, pe*pc)
				}
			}
			if xi > 0 {
				b.pairs = append(b.pairs, topicPair{int32(i), int32(j)})
			}
			p.Delta += float64(xi * s.params.combine(sigma[j], pe*sum))
			i++
			j++
		}
	}
	p.pairs, p.childP = b.pairs[p0:], b.childP[c0:]
	return p
}

// Words numbers the words candidate sets cover, 0, 1, 2, … in the order a
// set first covers them at commit (never when a probe is prepared), so a
// set's word coverage is a column per query position indexed by number
// rather than a table keyed by (word, query position), and the number
// space is the distinct words of admitted elements. The candidate sets of
// one query share one numbering, reset by its owner once none of them is
// used any more; a set made by NewCandidateSet numbers its words on its own.
//
// A lookup is two loads and no hashing: a directory entry per page of
// wordPage consecutive word IDs, and the word's entry in its page. A page
// exists only once one of its words has a number, so the storage follows
// the words the query numbered rather than the vocabulary.
type Words struct {
	// dir[w/wordPage] is the offset in pages of word w's page, 0 (the zero
	// page, never written) while no word of that page has a number.
	dir []uint32
	// pages holds 1 + a word's number at its entry, 0 for none.
	pages []int32
	n     int32 // numbers given
}

// wordPage is the number of word IDs per page: one 64-byte cache line.
const wordPage = 16

// Reset forgets every number, keeping the storage.
func (w *Words) Reset() {
	clear(w.dir)
	clear(w.pages)
	w.pages, w.n = w.pages[:min(len(w.pages), wordPage)], 0
}

// copyFrom makes w an independent copy of src, reusing w's storage.
func (w *Words) copyFrom(src *Words) {
	w.dir = append(w.dir[:0], src.dir...)
	w.pages = append(w.pages[:0], src.pages...)
	w.n = src.n
}

// Footprint returns the bytes of storage the numbering retains across Reset.
func (w *Words) Footprint() int { return 4*cap(w.dir) + 4*cap(w.pages) }

// find returns word's number, −1 if it has none.
func (w *Words) find(word textproc.WordID) int32 { return lookup(w.dir, w.pages, word) }

// lookup is find on a numbering's directory and pages, which eval holds in
// locals across a term loop.
func lookup(dir []uint32, pages []int32, word textproc.WordID) int32 {
	if d := uint(word) / wordPage; d < uint(len(dir)) {
		return pages[dir[d]+uint32(word)%wordPage] - 1
	}
	return -1
}

// number returns word's number, giving it the next one if it has none.
func (w *Words) number(word textproc.WordID) int32 {
	if len(w.pages) == 0 {
		w.pages = append(w.pages, make([]int32, wordPage)...) // the zero page
	}
	d := int(word) / wordPage
	if d >= len(w.dir) {
		w.dir = append(w.dir, make([]uint32, d+1-len(w.dir))...)
	}
	if w.dir[d] == 0 {
		w.dir[d] = uint32(len(w.pages))
		w.pages = append(w.pages, make([]int32, wordPage)...)
	}
	e := &w.pages[w.dir[d]+uint32(word)%wordPage]
	if *e == 0 {
		w.n++
		*e = w.n
	}
	return *e - 1
}

// CandidateSet is the incremental evaluation state for one candidate result
// set S of a query vector x. It supports marginal-gain queries Δ(e|S) and
// additions in O(d·(|V_e| + |I_t(e)|)) where d is the number of non-zero
// query entries, exactly the per-evaluation cost the paper's complexity
// analysis assumes (§4.2): a word-coverage step reads a column, an
// influence step probes a flat table.
//
// MTTS keeps O(log k / ε) of these per query; MTTD and the submodular
// baselines keep one. A set is owned by one goroutine: MarginalGain does not
// change S but does use the set's scratch space.
type CandidateSet struct {
	scorer  *Scorer
	x       topicmodel.TopicVec
	members []*stream.Element
	inSet   flat.Table // member IDs
	value   float64

	// words numbers the words S covers: &own, or the numbering the sets of
	// one query share.
	words *Words
	own   Words
	// covered[i][n] = max_{e∈S} σ_i(w,e) for query position i and the word w
	// numbered n, the word-coverage maxima: one column per query position,
	// so a column grows only where S covers a word on that topic. Zero
	// means uncovered, and so does an index past a column's end: a column
	// grows zero-filled to the largest number it covers.
	covered [][]float64
	// Keyed by (child c, query position i): p_i(S ⇝ c) for c ∈ I_t(S). Only
	// non-zero values have an entry — a row of x.Len() per child would be
	// mostly zeros, elements carrying fewer than two topics on average.
	inflProb flat.Table

	buf ProbeBuf // backs the probe of MarginalGain(e) / Add(e)
}

// NewCandidateSet returns an empty candidate set for query vector x that
// numbers its words on its own.
func NewCandidateSet(s *Scorer, x topicmodel.TopicVec) *CandidateSet {
	cs := new(CandidateSet)
	cs.Reset(s, x)
	return cs
}

// Reset empties the set and rebinds it to scorer s, query vector x and a
// numbering of its own in O(what the previous use touched), keeping its
// storage. It drops every element reference, so a reset set pins nothing of
// the window it last read.
func (cs *CandidateSet) Reset(s *Scorer, x topicmodel.TopicVec) {
	cs.own.Reset()
	cs.ResetShared(s, x, &cs.own)
}

// ResetShared is Reset for a set that numbers its words in w, which the
// other candidate sets of the same query vector share.
func (cs *CandidateSet) ResetShared(s *Scorer, x topicmodel.TopicVec, w *Words) {
	cs.scorer, cs.x, cs.value, cs.words = s, x, 0, w
	clear(cs.members)
	cs.members = cs.members[:0]
	cs.inSet.Reset(false)
	cs.columns(len(x.Topics))
	cs.inflProb.Reset(true)
	cs.buf.Reset()
}

// CopyFrom makes cs an independent copy of src — same scorer, query vector,
// members and coverage — reusing cs's storage. MTTS forks a candidate this
// way when only some of the sieves sharing it admit an element. The copy
// shares src's numbering, or copies it if src numbers on its own.
func (cs *CandidateSet) CopyFrom(src *CandidateSet) {
	cs.scorer, cs.x, cs.value, cs.words = src.scorer, src.x, src.value, src.words
	if src.words == &src.own {
		cs.own.copyFrom(&src.own)
		cs.words = &cs.own
	}
	cs.members = append(cs.members[:0], src.members...)
	cs.inSet.CopyFrom(&src.inSet)
	cs.columns(len(src.covered))
	for i, col := range src.covered {
		cs.covered[i] = append(cs.covered[i], col...)
	}
	cs.inflProb.CopyFrom(&src.inflProb)
}

// Footprint returns the bytes of storage the set retains across Reset.
func (cs *CandidateSet) Footprint() int {
	bytes := 8*cap(cs.members) + cs.buf.Footprint() + cs.inSet.Footprint() +
		cs.own.Footprint() + 24*cap(cs.covered) + cs.inflProb.Footprint()
	for _, col := range cs.covered[:cap(cs.covered)] {
		bytes += 8 * cap(col)
	}
	return bytes
}

// columns makes covered nx empty columns, reusing the storage of earlier
// ones.
func (cs *CandidateSet) columns(nx int) {
	if nx > cap(cs.covered) {
		cs.covered = append(cs.covered[:cap(cs.covered)], make([][]float64, nx-cap(cs.covered))...)
	}
	cs.covered = cs.covered[:nx]
	for i := range cs.covered {
		cs.covered[i] = cs.covered[i][:0]
	}
}

// coverage returns a coverage column's entry for the word numbered n, 0 if
// n is −1 (no number) or past the column's end.
func coverage(col []float64, n int32) float64 {
	if i := uint(n); i < uint(len(col)) {
		return col[i]
	}
	return 0
}

// coverAll raises the coverage at query position qi of each term's word to
// its weight σ, numbering the words that had none.
func (cs *CandidateSet) coverAll(terms []textproc.TermCount, weights []float64, qi int32) {
	col := cs.covered[qi]
	for k, tc := range terms {
		n := cs.words.find(tc.Word)
		if sig := weights[k]; sig > coverage(col, n) {
			if n < 0 {
				n = cs.words.number(tc.Word)
			}
			if int(n) >= len(col) {
				col = append(col, make([]float64, int(n)+1-len(col))...)
			}
			col[n] = sig
		}
	}
	cs.covered[qi] = col
}

// Len returns |S|.
func (cs *CandidateSet) Len() int { return len(cs.members) }

// Value returns f(S, x), maintained incrementally.
func (cs *CandidateSet) Value() float64 { return cs.value }

// Members returns the elements of S in insertion order. The caller must not
// mutate the returned slice, and must copy it to keep it past a Reset.
func (cs *CandidateSet) Members() []*stream.Element { return cs.members }

// Contains reports whether e is already in S.
func (cs *CandidateSet) Contains(id stream.ElemID) bool { return cs.inSet.Find(int64(id), 0) >= 0 }

// MarginalGain returns Δ(e|S) = f(S ∪ {e}, x) − f(S, x) without changing S.
// Adding an element already in S gains exactly 0.
func (cs *CandidateSet) MarginalGain(e *stream.Element) float64 {
	cs.buf.Reset()
	p := cs.scorer.Prepare(&cs.buf, e, cs.x)
	return cs.Gain(&p)
}

// Add inserts e into S, updates the incremental state and returns the
// realized marginal gain. Adding a member again is a no-op returning 0.
func (cs *CandidateSet) Add(e *stream.Element) float64 {
	cs.buf.Reset()
	p := cs.scorer.Prepare(&cs.buf, e, cs.x)
	return cs.AddProbe(&p)
}

// Gain is MarginalGain for an element whose probe (for this set's scorer
// and query vector) is already prepared.
func (cs *CandidateSet) Gain(p *Probe) float64 {
	if cs.Contains(p.Elem.ID) {
		return 0
	}
	return cs.eval(p, false)
}

// AddProbe is Add for an element whose probe is already prepared.
func (cs *CandidateSet) AddProbe(p *Probe) float64 {
	if cs.Contains(p.Elem.ID) {
		return 0
	}
	gain := cs.eval(p, true)
	cs.members = append(cs.members, p.Elem)
	cs.inSet.Insert(int64(p.Elem.ID), 0)
	cs.value += gain
	return gain
}

// eval computes Δ(e|S) from e's probe and, with commit set, folds e into the
// coverage state. Topic by topic, term by term and child by child in
// ascending ID, every float sum runs in the order the definition gives it.
func (cs *CandidateSet) eval(p *Probe, commit bool) float64 {
	params := cs.scorer.params
	nc := len(p.children)
	var gain float64
	for pi, pr := range p.pairs {
		// Semantic gain: the uncovered portions of e's word weights.
		var dSem float64
		// The loop makes no call, so the numbering and the column stay in
		// registers; a commit folds e's weights in afterwards (its words are
		// distinct, so no term reads another's update).
		terms := p.Elem.Doc.Terms
		weights := sigmaRow(p.sigma, p.Elem, int(pr.ej))[:len(terms)]
		dir, pages, col := cs.words.dir, cs.words.pages, cs.covered[pr.qi]
		for k, tc := range terms {
			if sig, cov := weights[k], coverage(col, lookup(dir, pages, tc.Word)); sig > cov {
				dSem += sig - cov
			}
		}
		if commit {
			cs.coverAll(terms, weights, pr.qi)
		}
		// Influence gain: Σ_c p_i(e⇝c)·(1 − p_i(S⇝c)).
		var dInfl float64
		for ci, c := range p.children {
			pc := p.childP[pi*nc+ci]
			r := cs.inflProb.Find(int64(c.ID), pr.qi)
			var old float64
			if r >= 0 {
				old = *cs.inflProb.Val(r)
			}
			dInfl += float64(pc * (1 - old))
			if commit {
				if now := 1 - float64((1-old)*(1-pc)); r >= 0 {
					*cs.inflProb.Val(r) = now
				} else if now != 0 {
					*cs.inflProb.Val(cs.inflProb.Insert(int64(c.ID), pr.qi)) = now
				}
			}
		}
		gain += float64(cs.x.Probs[pr.qi] * params.combine(dSem, dInfl))
	}
	return gain
}

// IDs returns the member IDs in insertion order.
func (cs *CandidateSet) IDs() []stream.ElemID {
	ids := make([]stream.ElemID, len(cs.members))
	for i, e := range cs.members {
		ids[i] = e.ID
	}
	return ids
}
