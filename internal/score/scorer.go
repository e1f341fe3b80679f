package score

import (
	"math"
	"sort"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// An element's σ cache is one []float64 of nt·(n + 1) entries for nt =
// len(e.Topics.Topics) and n = len(e.Doc.Terms), computed once when the
// element enters the active set: first R_i(e) = Σ_k σ_i(w_k, e) for each
// topic position j (entry j), then one row of σ_i(w_k, e) in term order per
// topic position (row j at nt + j·n). Both are reached from e's shape by a
// multiply and an add; see sigmaRow.

// Scorer binds a topic model, scoring parameters and an active window, and
// evaluates all the scoring functions of §3.2. Semantic word weights are
// cached per active element, in a table indexed by the element's slot in
// the window; influence scores are always computed from the window's live
// reference index so they are exact at query time.
//
// The methods of Scorer read the window as its writer does, through its ID
// map, and must be serialized with the window's advances; concurrent
// readers of a published window version go through a View. A scorer must
// see every advance of its window after its first through OnChange: a
// slot released by an advance it missed would keep the expired element's
// entry for the next element in it.
type Scorer struct {
	model  *topicmodel.Model
	win    *stream.ActiveWindow
	params Params
	// cache[s] is the σ cache of the element in slot s of win, nil for a
	// free slot. An entry is written when its slot is filled and cleared
	// when the slot is released, never in between, so a View reads the
	// entries of its version without locking.
	cache [][]float64
	// rowBytes is 8·cap of every entry of cache, for Bytes.
	rowBytes int64
}

// NewScorer returns a Scorer over the given model, window and parameters.
func NewScorer(model *topicmodel.Model, win *stream.ActiveWindow, params Params) (*Scorer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Scorer{
		model:  model,
		win:    win,
		params: params,
	}, nil
}

// Params returns the scoring parameters.
func (s *Scorer) Params() Params { return s.params }

// Window returns the active window the scorer reads.
func (s *Scorer) Window() *stream.ActiveWindow { return s.win }

// OnChange maintains the per-element caches after a window advance: it
// clears the entries of the slots the advance released, then caches every
// inserted element's word weights.
func (s *Scorer) OnChange(cs stream.ChangeSet) {
	for _, sl := range cs.Released {
		if int(sl) < len(s.cache) {
			s.rowBytes -= 8 * int64(cap(s.cache[sl]))
			s.cache[sl] = nil
		}
	}
	for i, e := range cs.Inserted {
		s.cacheAt(e, cs.InsertedSlots[i])
	}
}

// cacheAt returns the σ cache of e, the active element in slot sl, building
// it first if the slot has none.
func (s *Scorer) cacheAt(e *stream.Element, sl stream.Slot) []float64 {
	if int(sl) < len(s.cache) {
		if c := s.cache[sl]; c != nil {
			return c
		}
	} else {
		s.cache = grow(s.cache, sl)
	}
	c := s.build(e)
	s.cache[sl] = c
	s.rowBytes += 8 * int64(cap(c))
	return c
}

// Bytes returns the heap bytes the scorer's caches hold: the slot table's
// headers and every cached element's σ entries.
func (s *Scorer) Bytes() int64 {
	return 24*int64(cap(s.cache)) + s.rowBytes
}

// View is a scorer's read side at one version of its window: the cache
// table and the window's View as the writer left them at that version,
// read by slot only, without locking. Its lifetime is the window View's.
type View struct {
	s     *Scorer
	win   stream.View
	cache [][]float64
}

// View returns the scorer's view of the version its window's last advance
// wrote. Every element active at that version must be cached (OnChange).
func (s *Scorer) View() View { return View{s: s, win: s.win.View(), cache: s.cache} }

// Window returns the window version the view reads.
func (v View) Window() stream.View { return v.win }

// Scorer returns the scorer the view reads, for its parameters: a reader
// must not call its methods that go through the window's ID map.
func (v View) Scorer() *Scorer { return v.s }

// PrepareAt is Scorer.Prepare for the element e in slot sl at the view's
// version: its σ cache and I_t(e) are table reads.
func (v View) PrepareAt(b *ProbeBuf, e *stream.Element, sl stream.Slot, x topicmodel.TopicVec) Probe {
	return v.s.prepare(b, e, v.cache[sl], v.win.ChildrenAt(sl), x)
}

// ScoreAt is Scorer.Score for the element e in slot sl at the view's
// version.
func (v View) ScoreAt(e *stream.Element, sl stream.Slot, x topicmodel.TopicVec) float64 {
	return v.s.score(e, v.cache[sl], v.win.ChildrenAt(sl), x)
}

// ensureCached returns e's σ cache: the cached one when e is active in the
// scorer's window, otherwise one built for this call and not kept.
func (s *Scorer) ensureCached(e *stream.Element) []float64 {
	if sl, ok := s.win.SlotOf(e.ID); ok {
		return s.cacheAt(e, sl)
	}
	return s.build(e)
}

// grow returns t with room for index sl, new entries nil.
func grow(t [][]float64, sl stream.Slot) [][]float64 {
	for int(sl) >= len(t) {
		t = append(t, nil)
	}
	return t
}

// build computes e's σ cache in one allocation. It is never nil, so a
// table entry of an element with no topic still reads as cached.
func (s *Scorer) build(e *stream.Element) []float64 {
	nt, n := len(e.Topics.Topics), len(e.Doc.Terms)
	c := make([]float64, nt*(n+1))
	for j, topic := range e.Topics.Topics {
		pe := e.Topics.Probs[j]
		ws := sigmaRow(c, e, j)
		var total float64
		for k, tc := range e.Doc.Terms {
			p := s.model.TopicWord(int(topic), tc.Word) * pe
			if p > 0 {
				// σ_i(w,e) = −γ(w,e) · p · log p  (natural log; verified
				// against the worked example in §3.2).
				ws[k] = -float64(tc.Count) * p * math.Log(p)
			}
			total += ws[k]
		}
		c[j] = total
	}
	return c
}

// sigmaRow returns the row of σ_i(w_k, e), k in term order, for e's j-th
// topic i from e's σ cache c.
func sigmaRow(c []float64, e *stream.Element, j int) []float64 {
	n := len(e.Doc.Terms)
	off := len(e.Topics.Topics) + j*n
	return c[off : off+n : off+n]
}

// InfluenceScore returns I_{i,t}({e}) = Σ_{c ∈ I_t(e)} p_i(e)·p_i(c) for
// topic i, computed live from the window's reference index (children).
func influence(children []*stream.Element, topic int32, pe float64) float64 {
	var sum float64
	for _, c := range children {
		sum += c.Topics.Prob(topic)
	}
	return pe * sum
}

// TopicScore returns δ_i(e) = f_i({e}) = λ·R_i(e) + (1−λ)/η·I_{i,t}(e) for
// topic i. It returns 0 when p_i(e) = 0.
func (s *Scorer) TopicScore(e *stream.Element, topic int32) float64 {
	for j, tp := range e.Topics.Topics {
		if tp == topic {
			return s.topicScore(e, s.ensureCached(e), s.win.ChildrenView(e.ID), j)
		}
	}
	return 0
}

// TopicScoreAt is TopicScore for the active element e in slot sl and its
// j-th topic, which must be cached.
func (s *Scorer) TopicScoreAt(e *stream.Element, sl stream.Slot, j int) float64 {
	return s.topicScore(e, s.cache[sl], s.win.ChildrenAt(sl), j)
}

func (s *Scorer) topicScore(e *stream.Element, c []float64, children []*stream.Element, j int) float64 {
	infl := influence(children, e.Topics.Topics[j], e.Topics.Probs[j])
	return s.params.combine(c[j], infl)
}

// Score returns δ(e, x) = f({e}, x) = Σ_i x_i·δ_i(e).
func (s *Scorer) Score(e *stream.Element, x topicmodel.TopicVec) float64 {
	return s.score(e, s.ensureCached(e), s.win.ChildrenView(e.ID), x)
}

func (s *Scorer) score(e *stream.Element, c []float64, children []*stream.Element, x topicmodel.TopicVec) float64 {
	var total float64
	// Merge the sorted topic lists of e and x.
	i, j := 0, 0
	for i < len(x.Topics) && j < len(e.Topics.Topics) {
		switch {
		case x.Topics[i] < e.Topics.Topics[j]:
			i++
		case x.Topics[i] > e.Topics.Topics[j]:
			j++
		default:
			infl := influence(children, e.Topics.Topics[j], e.Topics.Probs[j])
			total += float64(x.Probs[i] * s.params.combine(c[j], infl))
			i++
			j++
		}
	}
	return total
}

// SetScore evaluates f(S, x) directly from the definitions (Equations 1–4),
// without incremental state. It is the reference implementation used by
// tests and by one-shot evaluations of externally produced result sets.
func (s *Scorer) SetScore(set []*stream.Element, x topicmodel.TopicVec) float64 {
	var total float64
	for i, topic := range x.Topics {
		xi := x.Probs[i]
		if xi == 0 {
			continue
		}
		total += float64(xi * s.params.combine(s.setSemantic(set, topic), s.setInfluence(set, topic)))
	}
	return total
}

// setSemantic computes R_i(S) = Σ_{w∈V_S} max_{e∈S} σ_i(w,e). The final
// sum runs in ascending word order so it is bit-deterministic regardless
// of map iteration order.
func (s *Scorer) setSemantic(set []*stream.Element, topic int32) float64 {
	best := make(map[int32]float64)
	for _, e := range set {
		c := s.ensureCached(e)
		for j, tp := range e.Topics.Topics {
			if tp != topic {
				continue
			}
			row := sigmaRow(c, e, j)
			for k, tc := range e.Doc.Terms {
				w := int32(tc.Word)
				if sig := row[k]; sig > best[w] {
					best[w] = sig
				}
			}
		}
	}
	words := make([]int32, 0, len(best))
	for w := range best {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	var sum float64
	for _, w := range words {
		sum += best[w]
	}
	return sum
}

// setInfluence computes I_{i,t}(S) = Σ_{c ∈ I_t(S)} p_i(S ⇝ c) with
// p_i(S ⇝ c) = 1 − Π_{e ∈ S ∩ c.ref} (1 − p_i(e)·p_i(c)). The final sum
// runs in ascending child-ID order so it is bit-deterministic regardless
// of map iteration order.
func (s *Scorer) setInfluence(set []*stream.Element, topic int32) float64 {
	// survive[c] = Π (1 − p_i(e ⇝ c)) over members influencing c.
	survive := make(map[stream.ElemID]float64)
	for _, e := range set {
		pe := e.Topics.Prob(topic)
		s.win.ForEachChild(e.ID, func(c *stream.Element) {
			p := float64(pe * c.Topics.Prob(topic))
			if cur, ok := survive[c.ID]; ok {
				survive[c.ID] = cur * (1 - p)
			} else {
				survive[c.ID] = 1 - p
			}
		})
	}
	ids := make([]stream.ElemID, 0, len(survive))
	for id := range survive {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, id := range ids {
		sum += 1 - survive[id]
	}
	return sum
}
