package score

import (
	"math"
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/dataset"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Caching an element into a slot the table already has room for costs one
// allocation, whatever its number of topics and terms: its σ cache is one
// []float64. Its entries hold, bit for bit, the σ formula's weights per
// (topic position, term) and their sums in term order, where sigmaRow and
// the totals say; Bytes follows every fill and release.
func TestScorerBuildAllocationsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const z, v = 6, 40
	model := randModel(rng, z, v)
	win := stream.NewActiveWindow(100)
	s, err := NewScorer(model, win, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Four topics, seven distinct terms, some counted more than once.
	e := &stream.Element{
		ID: 1, TS: 1,
		Doc:    textproc.NewDocument([]textproc.WordID{3, 9, 3, 17, 22, 9, 3, 31, 5, 38}),
		Topics: topicmodel.TopicVec{Topics: []int32{0, 2, 3, 5}, Probs: []float64{0.4, 0.3, 0.2, 0.1}},
	}
	bare := &stream.Element{ID: 2, TS: 1, Doc: textproc.NewDocument([]textproc.WordID{4})} // no topic
	cs, err := win.Advance(1, []*stream.Element{e, bare})
	if err != nil {
		t.Fatal(err)
	}
	s.OnChange(cs)
	sl, bareSl := cs.InsertedSlots[0], cs.InsertedSlots[1]
	if s.cache[bareSl] == nil {
		t.Error("an element with no topic reads as uncached")
	}

	nt, n := len(e.Topics.Topics), len(e.Doc.Terms)
	c := s.cache[sl]
	if len(c) != nt*(n+1) {
		t.Fatalf("σ cache of %d entries, want nt·(n+1) = %d", len(c), nt*(n+1))
	}
	for j, topic := range e.Topics.Topics {
		var total float64
		row := sigmaRow(c, e, j)
		for k, tc := range e.Doc.Terms {
			var want float64
			if p := model.TopicWord(int(topic), tc.Word) * e.Topics.Probs[j]; p > 0 {
				want = -float64(tc.Count) * p * math.Log(p)
			}
			if !sameBits(row[k], want) || !sameBits(c[nt+j*n+k], want) {
				t.Errorf("σ_%d(w%d) = %v, want %v", topic, tc.Word, row[k], want)
			}
			total += want
		}
		if !sameBits(c[j], total) {
			t.Errorf("R_%d(e) = %v, want %v", topic, c[j], total)
		}
	}
	if got, want := s.Bytes(), 24*int64(cap(s.cache))+8*int64(len(c)); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}

	release := stream.ChangeSet{Released: []stream.Slot{sl}}
	fill := stream.ChangeSet{Inserted: []*stream.Element{e}, InsertedSlots: []stream.Slot{sl}}
	if allocs := testing.AllocsPerRun(100, func() {
		s.OnChange(release)
		s.OnChange(fill)
	}); allocs != 1 {
		t.Errorf("%.2f allocations to cache a %d-topic, %d-term element, want 1", allocs, nt, n)
	}
	s.OnChange(release)
	if got, want := s.Bytes(), 24*int64(cap(s.cache)); got != want {
		t.Errorf("Bytes = %d after the release, want the table's %d", got, want)
	}
}

// BenchmarkPrepareGain is the element side of a query's read path on an
// AMiner-shaped window (≈ 49-token documents, ≈ 3.7 citations each, one or
// two topics of z = 50): one op prepares an element's probe at the view's
// version (its σ cache and I_t(e) read by slot) and evaluates its marginal
// gain against a candidate set of ten members, as MTTS and MTTD do for
// every element a descent retrieves.
func BenchmarkPrepareGain(b *testing.B) {
	v, work, sets := aminerWindow(b)
	var buf ProbeBuf
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &work[i%len(work)]
		buf.Reset()
		p := v.PrepareAt(&buf, w.e, w.sl, sets[w.q].x)
		sink += sets[w.q].Gain(&p)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN gain")
	}
}

// gainWork is one element of a query's retrieval in BenchmarkPrepareGain.
type gainWork struct {
	q  int
	e  *stream.Element
	sl stream.Slot
}

// aminerWindow builds a window of 4 000 AMinerLike elements (topic vectors
// from the generator's latent assignment, σ from a random model over its
// vocabulary), eight query vectors of one to five topics, each with a
// candidate set of its first ten sharing elements, and the work list of
// every other active element sharing a topic with a query.
func aminerWindow(b *testing.B) (View, []gainWork, []*CandidateSet) {
	b.Helper()
	ds, err := dataset.Generate(dataset.AMinerLike(4000), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	z := ds.Profile.Topics
	for i, e := range ds.Elements {
		e.Topics = ds.TrueTopics[i]
	}
	win := stream.NewActiveWindow(ds.Profile.Duration + 1)
	s, err := NewScorer(randModel(rng, z, ds.Vocab.Size()), win, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	buckets, err := stream.Partition(ds.Elements, 60)
	if err != nil {
		b.Fatal(err)
	}
	for _, bk := range buckets {
		cs, err := win.Advance(bk.End, bk.Elems)
		if err != nil {
			b.Fatal(err)
		}
		s.OnChange(cs)
	}
	v := s.View()

	var work []gainWork
	var sets []*CandidateSet
	for q := 0; q < 8; q++ {
		dense := make([]float64, z)
		var sum float64
		for d := 0; d <= q%5; d++ {
			p := rng.Float64()
			dense[ds.TrueTopics[rng.Intn(len(ds.Elements))].Topics[0]] += p
			sum += p
		}
		for i := range dense {
			dense[i] /= sum
		}
		x := topicmodel.NewTopicVec(dense)
		cs := NewCandidateSet(s, x)
		var buf ProbeBuf
		win.ForEachActiveSlot(func(e *stream.Element, sl stream.Slot) {
			if e.Topics.Cosine(x) == 0 {
				return
			}
			if cs.Len() < 10 {
				buf.Reset()
				p := v.PrepareAt(&buf, e, sl, x)
				cs.AddProbe(&p)
				return
			}
			work = append(work, gainWork{q, e, sl})
		})
		sets = append(sets, cs)
	}
	rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	return v, work, sets
}
