package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// paperEngine builds an engine with the paper's example parameters
// (λ=0.5, η=2, T=4) and ingests the eight elements one per time unit.
func paperEngine(t *testing.T) *Engine {
	t.Helper()
	g, err := NewEngine(Config{
		Model:        papertest.Model(),
		WindowLength: 4,
		Params:       score.Params{Lambda: 0.5, Eta: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range papertest.Elements() {
		if err := g.Ingest(e.TS, []*stream.Element{e}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{Model: nil, WindowLength: 4}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewEngine(Config{Model: papertest.Model(), WindowLength: 0}); err == nil {
		t.Error("zero window accepted")
	}
	bad := score.Params{Lambda: 2, Eta: 1}
	if _, err := NewEngine(Config{Model: papertest.Model(), WindowLength: 4, Params: bad}); err == nil {
		t.Error("bad params accepted")
	}
}

// Figure 5: the ranked lists at t=8. RL1 = e3,e6,e8,e2,{e7,e1},e5 with
// scores 0.65,0.48,0.17,0.10,0.06,0.06,0.05; RL2 = e1,e2,e5,e7,e8,e6,e3
// with scores 0.56,0.48,0.27,0.18,0.16,0.13,0.03.
func TestFigure5RankedLists(t *testing.T) {
	g := paperEngine(t)
	if g.ListLen(0) != 7 || g.ListLen(1) != 7 {
		t.Fatalf("list sizes = %d, %d; want 7, 7 (e4 expired)", g.ListLen(0), g.ListLen(1))
	}

	rl2 := g.ListItems(1)
	wantOrder := []stream.ElemID{1, 2, 5, 7, 8, 6, 3}
	wantScore := []float64{0.56, 0.48, 0.27, 0.18, 0.16, 0.13, 0.03}
	for i, item := range rl2 {
		if item.ID != wantOrder[i] {
			t.Errorf("RL2[%d] = e%d, want e%d", i, item.ID, wantOrder[i])
		}
		if math.Abs(item.Score-wantScore[i]) > 0.011 {
			t.Errorf("RL2[%d] score = %.4f, want %.2f", i, item.Score, wantScore[i])
		}
	}

	rl1 := g.ListItems(0)
	// e7 and e1 tie at ~0.06 (0.0563 vs 0.0565); assert the unambiguous
	// positions and the score values.
	wantScore1 := []float64{0.65, 0.48, 0.17, 0.10, 0.06, 0.06, 0.05}
	for i, item := range rl1 {
		if math.Abs(item.Score-wantScore1[i]) > 0.011 {
			t.Errorf("RL1[%d] (e%d) score = %.4f, want %.2f", i, item.ID, item.Score, wantScore1[i])
		}
	}
	for i, want := range []stream.ElemID{3, 6, 8, 2} {
		if rl1[i].ID != want {
			t.Errorf("RL1[%d] = e%d, want e%d", i, rl1[i].ID, want)
		}
	}
	if rl1[6].ID != 5 {
		t.Errorf("RL1 tail = e%d, want e5", rl1[6].ID)
	}
}

// Last-referred timestamps of the listed elements (Algorithm 1: t_e
// updates when a reference arrives). The window holds t_e; the tuples do
// not.
func TestRankedListLastRef(t *testing.T) {
	g := paperEngine(t)
	wantTe := map[stream.ElemID]stream.Time{
		1: 5, 2: 8, 3: 8, 5: 5, 6: 8, 7: 7, 8: 8,
	}
	for _, item := range g.ListItems(1) {
		if te, _ := g.Window().LastRef(item.ID); te != wantTe[item.ID] {
			t.Errorf("t_e(e%d) = %d, want %d", item.ID, te, wantTe[item.ID])
		}
	}
}

func TestIngestExpiryRemovesFromLists(t *testing.T) {
	g := paperEngine(t)
	for _, topic := range []int{0, 1} {
		for _, item := range g.ListItems(topic) {
			if item.ID == 4 {
				t.Errorf("expired e4 still in RL%d", topic+1)
			}
		}
	}
	// Drain completely: advance far beyond the window.
	if err := g.Ingest(100, nil); err != nil {
		t.Fatal(err)
	}
	if g.ListLen(0) != 0 || g.ListLen(1) != 0 {
		t.Errorf("lists not drained: %d, %d", g.ListLen(0), g.ListLen(1))
	}
	if g.NumActive() != 0 {
		t.Errorf("active = %d", g.NumActive())
	}
}

func TestIngestErrorPropagates(t *testing.T) {
	g := paperEngine(t)
	if err := g.Ingest(1, nil); err == nil {
		t.Error("backwards time accepted")
	}
}

func TestStats(t *testing.T) {
	g := paperEngine(t)
	st := g.Stats()
	if st.ElementsIngested != 8 {
		t.Errorf("ElementsIngested = %d", st.ElementsIngested)
	}
	if st.Buckets != 8 {
		t.Errorf("Buckets = %d", st.Buckets)
	}
	if st.ListUpserts == 0 {
		t.Error("no upserts recorded")
	}
	if st.UpdateTimePerElement() < 0 {
		t.Error("negative update time")
	}
	if (Stats{}).UpdateTimePerElement() != 0 {
		t.Error("zero-division guard failed")
	}
}

func TestEngineNow(t *testing.T) {
	g := paperEngine(t)
	if g.Now() != 8 {
		t.Errorf("Now = %d", g.Now())
	}
	if g.NumActive() != 7 {
		t.Errorf("NumActive = %d", g.NumActive())
	}
}

// A child that shares no topic with its parent moves the parent's t_e
// alone: the window advances it, and the parent's list nodes stay the same
// nodes, with no dead node left for the sweep. A child that shares a topic
// moves δ on that topic, which gets a new node; the other keeps its own.
func TestParentKeepsItsNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const z, v = 4, 20
	g, err := NewEngine(Config{Model: testutil.RandModel(rng, z, v), WindowLength: 100, Params: paperConfig().Params})
	if err != nil {
		t.Fatal(err)
	}
	elem := func(id stream.ElemID, ts stream.Time, topics []int32, refs ...stream.ElemID) *stream.Element {
		e := testutil.RandElement(rng, int(id), z, v, 0)
		e.TS, e.Refs = ts, refs
		e.Topics = topicmodel.TopicVec{Topics: topics, Probs: make([]float64, len(topics))}
		for j := range topics {
			e.Topics.Probs[j] = 1 / float64(len(topics))
		}
		return e
	}
	parent := []int32{0, 1}
	// nodes returns the parent's node handles, by topic position, and its
	// t_e, under the writer lock like any ID-keyed read.
	nodes := func() ([]any, stream.Time) {
		g.mu.Lock()
		defer g.mu.Unlock()
		s, ok := g.win.SlotOf(1)
		if !ok {
			t.Fatal("the parent is not active")
		}
		out := make([]any, len(parent))
		for j, topic := range parent {
			if out[j] = g.lists[topic].NodeAt(s, j); out[j] == nil {
				t.Fatalf("the parent has no node on topic %d", topic)
			}
		}
		return out, g.win.LastRefAt(s)
	}
	if err := g.Ingest(10, []*stream.Element{elem(1, 10, parent)}); err != nil {
		t.Fatal(err)
	}
	before, te := nodes()
	if te != 10 {
		t.Fatalf("the parent's t_e is %d after its arrival, want 10", te)
	}

	if err := g.Ingest(20, []*stream.Element{elem(2, 20, []int32{2, 3}, 1)}); err != nil {
		t.Fatal(err)
	}
	after, te := nodes()
	if te != 20 {
		t.Errorf("the parent's t_e is %d after a reference at 20", te)
	}
	for j, topic := range parent {
		if after[j] != before[j] {
			t.Errorf("a child without the parent's topics replaced its node on topic %d", topic)
		}
	}
	if d := g.tab.Dead(); d != 0 {
		t.Errorf("%d dead nodes after a bucket that removed none", d)
	}

	if err := g.Ingest(30, []*stream.Element{elem(3, 30, []int32{1, 3}, 1)}); err != nil {
		t.Fatal(err)
	}
	shared, te := nodes()
	if te != 30 {
		t.Errorf("the parent's t_e is %d after a reference at 30", te)
	}
	if shared[0] != before[0] {
		t.Error("a child on topic 1 alone replaced the parent's node on topic 0")
	}
	if shared[1] == before[1] {
		t.Error("a child on topic 1 left the parent's node on topic 1, whose score it moved")
	}
	if d := g.tab.Dead(); d != 1 {
		t.Errorf("%d dead nodes after one rescore, want 1", d)
	}
}
