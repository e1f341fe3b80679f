package score

import (
	"math"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// paperScorer builds a Scorer on the paper's running example: λ=0.5, η=2,
// T=4, advanced to t=8 (Example 3.4).
func paperScorer(t *testing.T) (*Scorer, []*stream.Element) {
	t.Helper()
	win, elems := papertest.Window()
	s, err := NewScorer(papertest.Model(), win, Params{Lambda: 0.5, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s, elems
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{
		{Lambda: -0.1, Eta: 1},
		{Lambda: 1.1, Eta: 1},
		{Lambda: 0.5, Eta: 0},
		{Lambda: 0.5, Eta: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Params %+v accepted", bad)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

// Example 3.1: R_2({e2, e7}) = 0.53. The semantic score of the pair on θ2
// sums the per-word maxima: σ2(w4,e2)=0.18, σ2(w9,e2)=0.15, σ2(w11,e2)=0.20.
func TestExample31SemanticScore(t *testing.T) {
	s, elems := paperScorer(t)
	set := []*stream.Element{elems[1], elems[6]} // e2, e7
	got := s.setSemantic(set, 1)
	if math.Abs(got-0.53) > 0.01 {
		t.Errorf("R_2({e2,e7}) = %v, want 0.53", got)
	}
	// e7 alone contributes nothing beyond e2 (its words are dominated).
	solo := s.setSemantic([]*stream.Element{elems[1]}, 1)
	if math.Abs(solo-got) > 1e-12 {
		t.Errorf("e7 should add nothing: R_2({e2}) = %v vs pair %v", solo, got)
	}
}

// Example 3.2: I_{2,8}({e2, e3}) = 0.93, from p2(S⇝e6)=0.03, p2(S⇝e7)=0.50,
// p2(S⇝e8)=0.40.
func TestExample32InfluenceScore(t *testing.T) {
	s, elems := paperScorer(t)
	set := []*stream.Element{elems[1], elems[2]} // e2, e3
	got := s.setInfluence(set, 1)
	if math.Abs(got-0.93) > 0.01 {
		t.Errorf("I_{2,8}({e2,e3}) = %v, want 0.93", got)
	}
}

// Example 3.4: f({e1,e3}, x1) = 0.65 for x1=(0.5,0.5) and f({e1,e2}, x2) =
// 0.94 for x2=(0.1,0.9), and these are the optima over all pairs.
func TestExample34OptimalSets(t *testing.T) {
	s, elems := paperScorer(t)
	active := activeElems(s, elems)

	x1 := papertest.QueryUniform()
	got1 := s.SetScore([]*stream.Element{elems[0], elems[2]}, x1)
	if math.Abs(got1-0.65) > 0.02 {
		t.Errorf("f({e1,e3}, x1) = %v, want 0.65", got1)
	}
	best1, bestSet1 := bruteForcePairs(s, active, x1)
	if !sameIDs(bestSet1, []stream.ElemID{1, 3}) {
		t.Errorf("optimal pair for x1 = %v (%.4f), want {e1,e3}", ids(bestSet1), best1)
	}

	x2 := papertest.QuerySkewed()
	got2 := s.SetScore([]*stream.Element{elems[0], elems[1]}, x2)
	if math.Abs(got2-0.94) > 0.02 {
		t.Errorf("f({e1,e2}, x2) = %v, want 0.94", got2)
	}
	_, bestSet2 := bruteForcePairs(s, active, x2)
	if !sameIDs(bestSet2, []stream.ElemID{1, 2}) {
		t.Errorf("optimal pair for x2 = %v, want {e1,e2}", ids(bestSet2))
	}
}

// Figure 5: the ranked-list scores δ_i(e) at t=8. Spot-check several.
func TestFigure5TopicScores(t *testing.T) {
	s, elems := paperScorer(t)
	checks := []struct {
		elem  int // 0-based index
		topic int32
		want  float64
	}{
		{2, 0, 0.65}, // δ1(e3)
		{5, 0, 0.48}, // δ1(e6)
		{0, 1, 0.56}, // δ2(e1)
		{1, 1, 0.48}, // δ2(e2)
		{4, 1, 0.27}, // δ2(e5)
		{6, 1, 0.18}, // δ2(e7)
		{2, 1, 0.03}, // δ2(e3)
	}
	for _, c := range checks {
		got := s.TopicScore(elems[c.elem], c.topic)
		if math.Abs(got-c.want) > 0.011 {
			t.Errorf("δ_%d(e%d) = %.4f, want %.2f", c.topic+1, c.elem+1, got, c.want)
		}
	}
	// p_i(e)=0 ⇒ δ_i(e)=0: e4 has p2=0 (and is expired anyway).
	if got := s.TopicScore(elems[3], 1); got != 0 {
		t.Errorf("δ_2(e4) = %v, want 0", got)
	}
}

func TestScoreMatchesSingletonSetScore(t *testing.T) {
	s, elems := paperScorer(t)
	x := papertest.QueryUniform()
	for _, e := range activeElems(s, elems) {
		a := s.Score(e, x)
		b := s.SetScore([]*stream.Element{e}, x)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("Score(e%d) = %v but SetScore singleton = %v", e.ID, a, b)
		}
	}
}

func TestOnChangeEvictsCache(t *testing.T) {
	win := stream.NewActiveWindow(4)
	s, err := NewScorer(papertest.Model(), win, Params{Lambda: 0.5, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range papertest.Elements() {
		cs, err := win.Advance(e.TS, []*stream.Element{e})
		if err != nil {
			t.Fatal(err)
		}
		s.OnChange(cs)
	}
	// e4 expired at t=8; its slot keeps its entry until the next advance
	// releases the slot, after which only active elements' slots hold one.
	if _, ok := win.SlotOf(4); ok {
		t.Fatal("e4 still active")
	}
	cs, err := win.Advance(win.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Released) != 1 {
		t.Fatalf("the flush released %d slots, want e4's", len(cs.Released))
	}
	s.OnChange(cs)
	cached := 0
	for sl, c := range s.cache {
		if c == nil {
			continue
		}
		cached++
		if win.At(stream.Slot(sl)) == nil {
			t.Errorf("free slot %d still cached", sl)
		}
	}
	if cached != 7 {
		t.Errorf("cache has %d entries, want 7", cached)
	}
}

// --- helpers ---

func activeElems(s *Scorer, elems []*stream.Element) []*stream.Element {
	var out []*stream.Element
	for _, e := range elems {
		if _, ok := s.win.Get(e.ID); ok {
			out = append(out, e)
		}
	}
	return out
}

func bruteForcePairs(s *Scorer, elems []*stream.Element, x topicmodel.TopicVec) (float64, []*stream.Element) {
	var best float64
	var bestSet []*stream.Element
	for i := 0; i < len(elems); i++ {
		for j := i + 1; j < len(elems); j++ {
			set := []*stream.Element{elems[i], elems[j]}
			if v := s.SetScore(set, x); v > best {
				best, bestSet = v, set
			}
		}
	}
	return best, bestSet
}

func sameIDs(set []*stream.Element, want []stream.ElemID) bool {
	if len(set) != len(want) {
		return false
	}
	have := make(map[stream.ElemID]bool)
	for _, e := range set {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			return false
		}
	}
	return true
}

func ids(set []*stream.Element) []stream.ElemID {
	out := make([]stream.ElemID, len(set))
	for i, e := range set {
		out[i] = e.ID
	}
	return out
}
