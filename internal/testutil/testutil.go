// Package testutil builds random k-SIR instances shared by test suites:
// a random topic model, an active window full of random elements with
// references, and normalized query vectors.
package testutil

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Instance is one random test instance.
type Instance struct {
	Model   *topicmodel.Model
	Window  *stream.ActiveWindow
	Scorer  *score.Scorer
	Elems   []*stream.Element
	Topics  int
	Vocab   int
	NumDocs int
}

// Options controls instance generation.
type Options struct {
	Topics   int // default 4
	Vocab    int // default 30
	Elements int // default 12
	MaxRefs  int // default 2
	Params   score.Params
}

func (o *Options) fill() {
	if o.Topics == 0 {
		o.Topics = 4
	}
	if o.Vocab == 0 {
		o.Vocab = 30
	}
	if o.Elements == 0 {
		o.Elements = 12
	}
	if o.MaxRefs == 0 {
		o.MaxRefs = 2
	}
	if o.Params == (score.Params{}) {
		o.Params = score.Params{Lambda: 0.5, Eta: 2}
	}
}

// RandModel builds a random topic model with z topics over v words.
func RandModel(rng *rand.Rand, z, v int) *topicmodel.Model {
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

// RandElement builds a random element with the given ID/timestamp,
// 1–5 words, 1–2 topics and up to maxRefs references to earlier IDs.
func RandElement(rng *rand.Rand, id int, z, v, maxRefs int) *stream.Element {
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
	e := &stream.Element{
		ID:     stream.ElemID(id),
		TS:     stream.Time(id),
		Doc:    textproc.NewDocument(ids),
		Topics: topicmodel.NewTopicVec(dense),
	}
	for r := 0; r < rng.Intn(maxRefs+1) && id > 1; r++ {
		e.Refs = append(e.Refs, stream.ElemID(1+rng.Intn(id-1)))
	}
	return e
}

// NewInstance generates a full random instance. All elements stay active
// (window length exceeds the stream length).
func NewInstance(rng *rand.Rand, opts Options) *Instance {
	opts.fill()
	m := RandModel(rng, opts.Topics, opts.Vocab)
	win := stream.NewActiveWindow(stream.Time(opts.Elements + 1))
	scorer, err := score.NewScorer(m, win, opts.Params)
	if err != nil {
		panic(err) // Options.fill guarantees valid params
	}
	inst := &Instance{
		Model: m, Window: win, Scorer: scorer,
		Topics: opts.Topics, Vocab: opts.Vocab, NumDocs: opts.Elements,
	}
	for i := 1; i <= opts.Elements; i++ {
		e := RandElement(rng, i, opts.Topics, opts.Vocab, opts.MaxRefs)
		cs, err := win.Advance(e.TS, []*stream.Element{e})
		if err != nil {
			panic(err)
		}
		scorer.OnChange(cs)
		inst.Elems = append(inst.Elems, e)
	}
	return inst
}

// RandQuery returns a normalized dense query vector over z topics.
func RandQuery(rng *rand.Rand, z int) topicmodel.TopicVec {
	dense := make([]float64, z)
	var sum float64
	for j := range dense {
		dense[j] = rng.Float64()
		sum += dense[j]
	}
	for j := range dense {
		dense[j] /= sum
	}
	return topicmodel.NewTopicVec(dense)
}

// BruteForceOPT enumerates all subsets of size ≤ k for the exact optimum.
func BruteForceOPT(s *score.Scorer, elems []*stream.Element, x topicmodel.TopicVec, k int) float64 {
	var best float64
	var rec func(start int, cur []*stream.Element)
	rec = func(start int, cur []*stream.Element) {
		if v := s.SetScore(cur, x); v > best {
			best = v
		}
		if len(cur) == k {
			return
		}
		for i := start; i < len(elems); i++ {
			rec(i+1, append(cur, elems[i]))
		}
	}
	rec(0, nil)
	return best
}

// edgeProbs are probabilities whose bits a decimal or float32 detour would
// change: the subnormals, the smallest normal, values one ulp apart,
// negative zero and a NaN with a payload.
var edgeProbs = []float64{
	math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
	math.Nextafter(0.5, 1), 1, math.Copysign(0, -1), math.Float64frombits(0x7ff8dead00000001),
}

// EdgeElements returns elements covering every shape an archive record and
// an element-log frame must carry — no terms, no refs, no topics, four
// topics, edge probabilities, extreme IDs, times and counts — followed by
// n random ones with texts of up to 400 random bytes.
func EdgeElements(rng *rand.Rand, n int) []*stream.Element {
	out := []*stream.Element{
		{ID: 1, TS: 1}, // nothing but the header
		{ID: math.MinInt64, TS: math.MaxInt64, Text: "x"}, // extreme header
		{
			ID: 2, TS: 3,
			Doc:    textproc.Document{Terms: []textproc.TermCount{{Word: math.MaxInt32, Count: math.MaxInt32}}, Len: math.MaxInt32},
			Topics: topicmodel.TopicVec{Topics: []int32{0, 1, 2, 3}, Probs: edgeProbs[:4]},
		},
		{
			ID: 4, TS: 5, Refs: []stream.ElemID{-1, 0, math.MaxInt64},
			Topics: topicmodel.TopicVec{Topics: []int32{4, 5, 6, 7}, Probs: edgeProbs[4:]},
			Text:   "späte Tore ⚽",
		},
	}
	for i := 0; i < n; i++ {
		e := &stream.Element{ID: stream.ElemID(rng.Int63()), TS: stream.Time(rng.Int63n(1 << 40))}
		words := make([]textproc.WordID, rng.Intn(12))
		for j := range words {
			words[j] = textproc.WordID(rng.Intn(50))
		}
		e.Doc = textproc.NewDocument(words)
		for j := rng.Intn(5); j > 0; j-- {
			e.Topics.Topics = append(e.Topics.Topics, int32(rng.Intn(100)))
			p := rng.Float64()
			if rng.Intn(4) == 0 {
				p = edgeProbs[rng.Intn(len(edgeProbs))]
			}
			e.Topics.Probs = append(e.Topics.Probs, p)
		}
		for j := rng.Intn(3); j > 0; j-- {
			e.Refs = append(e.Refs, stream.ElemID(rng.Int63()))
		}
		text := make([]byte, rng.Intn(400))
		rng.Read(text)
		e.Text = string(text)
		out = append(out, e)
	}
	return out
}

// SameElement fails t unless got equals want field by field, the
// probabilities bit for bit (a NaN is not DeepEqual to itself).
func SameElement(t testing.TB, got, want *stream.Element) {
	t.Helper()
	if len(got.Topics.Probs) != len(want.Topics.Probs) {
		t.Fatalf("element %d: %d probabilities, want %d", want.ID, len(got.Topics.Probs), len(want.Topics.Probs))
	}
	for i, p := range want.Topics.Probs {
		if math.Float64bits(got.Topics.Probs[i]) != math.Float64bits(p) {
			t.Fatalf("element %d: probability %d has bits %x, want %x", want.ID, i, math.Float64bits(got.Topics.Probs[i]), math.Float64bits(p))
		}
	}
	g, w := *got, *want
	g.Topics.Probs, w.Topics.Probs = nil, nil
	// An empty slice and a nil one encode alike.
	for _, e := range []*stream.Element{&g, &w} {
		if len(e.Doc.Terms) == 0 {
			e.Doc.Terms = nil
		}
		if len(e.Topics.Topics) == 0 {
			e.Topics.Topics = nil
		}
		if len(e.Refs) == 0 {
			e.Refs = nil
		}
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("element round trip diverges:\n got %+v\nwant %+v", g, w)
	}
}
