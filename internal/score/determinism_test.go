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

// A replica scorer fed only the recorded cache delta scores identically
// to the recording scorer — the entries are shared by pointer, never
// recomputed.
func TestApplyCacheDeltaSharesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const z, v = 6, 60
	model := randModel(rng, z, v)
	primaryWin, replicaWin := stream.NewActiveWindow(50), stream.NewActiveWindow(50)
	primary, _ := NewScorer(model, primaryWin, Params{Lambda: 0.5, Eta: 2})
	replica, _ := NewScorer(model, replicaWin, Params{Lambda: 0.5, Eta: 2})

	x := topicmodel.TopicVec{Topics: []int32{1, 3}, Probs: []float64{0.6, 0.4}}
	now := stream.Time(0)
	for b := 0; b < 8; b++ {
		batch := make([]*stream.Element, 0, 5)
		for i := 0; i < 5; i++ {
			e := randElement(rng, b*10+i+1, z, v)
			e.TS = now + stream.Time(i+1)
			batch = append(batch, e)
		}
		now += 20 // slides old elements out: exercises the drop side too
		cs, err := primaryWin.Advance(now, batch)
		if err != nil {
			t.Fatal(err)
		}
		d := primary.OnChangeRecorded(cs)
		if _, err := replicaWin.Advance(now, batch); err != nil {
			t.Fatal(err)
		}
		replica.ApplyCacheDelta(d)

		if got, want := len(replica.cache), len(primary.cache); got != want {
			t.Fatalf("bucket %d: cache sizes diverge %d vs %d", b, got, want)
		}
		for id, c := range primary.cache {
			if replica.cache[id] != c {
				t.Fatalf("bucket %d: cache entry %d not shared", b, id)
			}
		}
		for _, e := range batch {
			if replica.Score(e, x) != primary.Score(e, x) {
				t.Fatalf("bucket %d: scores diverge for %d", b, e.ID)
			}
		}
	}
}
