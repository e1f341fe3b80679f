package score

import (
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// randModel / randElement mirror internal/testutil (which cannot be
// imported here: it depends on this package).
func randModel(rng *rand.Rand, z, v int) *topicmodel.Model {
	m := &topicmodel.Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
	for i := 0; i < z; i++ {
		var sum float64
		for w := 0; w < v; w++ {
			m.Phi[i*v+w] = rng.Float64()
			sum += m.Phi[i*v+w]
		}
		for w := 0; w < v; w++ {
			m.Phi[i*v+w] /= sum
		}
		m.PTopic[i] = 1 / float64(z)
	}
	return m
}

func randElement(rng *rand.Rand, id, z, v int) *stream.Element {
	nw := 1 + rng.Intn(5)
	ids := make([]textproc.WordID, nw)
	for j := range ids {
		ids[j] = textproc.WordID(rng.Intn(v))
	}
	dense := make([]float64, z)
	k := 1 + rng.Intn(2)
	for j := 0; j < k; j++ {
		dense[rng.Intn(z)] += rng.Float64()
	}
	var sum float64
	for _, d := range dense {
		sum += d
	}
	for j := range dense {
		dense[j] /= sum
	}
	return &stream.Element{
		ID:     stream.ElemID(id),
		TS:     stream.Time(id),
		Doc:    textproc.NewDocument(ids),
		Topics: topicmodel.NewTopicVec(dense),
	}
}

// deterministicFixture builds a window with a parent that has many
// children (a wide reference index) so any map-order float summation
// would jitter across evaluations.
func deterministicFixture(t *testing.T) (*Scorer, []*stream.Element, topicmodel.TopicVec) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const z, v = 6, 60
	model := randModel(rng, z, v)
	win := stream.NewActiveWindow(1000)

	parents := make([]*stream.Element, 4)
	batch := make([]*stream.Element, 0, 40)
	for i := range parents {
		parents[i] = randElement(rng, i+1, z, v)
		batch = append(batch, parents[i])
	}
	for i := 0; i < 30; i++ {
		c := randElement(rng, 100+i, z, v)
		c.TS = stream.Time(i + 5) // after the parents: batches arrive timestamp-ordered
		c.Refs = []stream.ElemID{parents[i%len(parents)].ID, parents[(i+1)%len(parents)].ID}
		batch = append(batch, c)
	}
	cs, err := win.Advance(100, batch)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScorer(model, win, Params{Lambda: 0.5, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.OnChange(cs)
	x := topicmodel.TopicVec{Topics: []int32{0, 2, 4}, Probs: []float64{0.5, 0.3, 0.2}}
	return s, parents, x
}

// Every scoring function is bit-deterministic across repeated evaluations:
// influence sums iterate the reference index in sorted child order, and
// the set functions sum their coverage maps in sorted key order. (Go
// randomizes map iteration per range statement, so 50 repetitions would
// almost surely expose an order-dependent float accumulation.)
func TestScoringIsBitDeterministic(t *testing.T) {
	s, parents, x := deterministicFixture(t)
	set := parents
	baseTopic := s.TopicScore(parents[0], 0)
	baseScore := s.Score(parents[0], x)
	baseSet := s.SetScore(set, x)
	for i := 0; i < 50; i++ {
		if got := s.TopicScore(parents[0], 0); got != baseTopic {
			t.Fatalf("TopicScore jittered: %v vs %v", got, baseTopic)
		}
		if got := s.Score(parents[0], x); got != baseScore {
			t.Fatalf("Score jittered: %v vs %v", got, baseScore)
		}
		if got := s.SetScore(set, x); got != baseSet {
			t.Fatalf("SetScore jittered: %v vs %v", got, baseSet)
		}
	}
}

// A view taken after an advance scores every element active at that
// version bit for bit as the scorer did then, while the next advance —
// arrivals, expiries, and the release of the slots the one before gave
// back — runs; and OnChange drops a released slot's entry, so a slot's
// next element gets its own.
func TestViewScoresItsVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const z, v = 6, 60
	model := randModel(rng, z, v)
	win := stream.NewActiveWindow(50)
	s, _ := NewScorer(model, win, Params{Lambda: 0.5, Eta: 2})

	x := topicmodel.TopicVec{Topics: []int32{1, 3}, Probs: []float64{0.6, 0.4}}
	now := stream.Time(0)
	released := 0
	for b := 0; b < 12; b++ {
		batch := make([]*stream.Element, 0, 5)
		for i := 0; i < 5; i++ {
			e := randElement(rng, b*10+i+1, z, v)
			e.TS = now + stream.Time(i+1)
			if b > 0 {
				e.Refs = []stream.ElemID{stream.ElemID((b-1)*10 + 1 + rng.Intn(5))}
			}
			batch = append(batch, e)
		}
		now += stream.Time(10 + rng.Intn(20)) // slides old elements out: exercises the release side too
		view := s.View()
		want := map[stream.Slot]float64{}
		win.ForEachActiveSlot(func(e *stream.Element, sl stream.Slot) { want[sl] = s.Score(e, x) })
		cs, err := win.Advance(now, batch)
		if err != nil {
			t.Fatal(err)
		}
		s.OnChange(cs)
		for sl, w := range want {
			if got := view.ScoreAt(view.Window().At(sl), sl, x); got != w {
				t.Fatalf("bucket %d: slot %d scores %v at its version, want %v", b, sl, got, w)
			}
		}
		for _, sl := range cs.Released {
			released++
			if e := win.At(sl); e == nil && s.cache[sl] != nil {
				t.Fatalf("bucket %d: released slot %d keeps a cache entry", b, sl)
			}
		}
		for i, e := range cs.Inserted {
			if sl := cs.InsertedSlots[i]; win.At(sl) == e && s.cache[sl] == nil {
				t.Fatalf("bucket %d: inserted element %d has no cache entry", b, e.ID)
			}
		}
	}
	if released == 0 {
		t.Fatal("no slot was released; the script must expire elements")
	}
}
