package ksir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// corpus builds a two-topic training corpus: soccer and basketball posts.
func corpus(n int) []string {
	soccer := []string{"goal", "striker", "keeper", "league", "derby", "penalty", "midfield", "champions"}
	basket := []string{"dunk", "rebound", "playoffs", "court", "buzzer", "triple", "assist", "quarter"}
	rng := rand.New(rand.NewSource(3))
	texts := make([]string, n)
	for i := range texts {
		words := soccer
		if i%2 == 1 {
			words = basket
		}
		var b []string
		for j := 0; j < 6; j++ {
			b = append(b, words[rng.Intn(len(words))])
		}
		texts[i] = strings.Join(b, " ")
	}
	return texts
}

func trainTestModel(t *testing.T) *Model {
	t.Helper()
	m, err := TrainModel(corpus(200), WithTopics(2), WithIterations(40), WithSeed(1),
		WithPriors(0.5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainModelValidation(t *testing.T) {
	if _, err := TrainModel(nil); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := TrainModel(corpus(10), WithTopics(1)); err == nil {
		t.Error("1 topic accepted")
	}
	if _, err := TrainModel([]string{"a b", "c d"}, WithTopics(40)); err == nil {
		t.Error("tiny vocab accepted")
	}
}

func TestModelAccessors(t *testing.T) {
	m := trainTestModel(t)
	if m.Topics() != 2 {
		t.Errorf("Topics = %d", m.Topics())
	}
	if m.VocabSize() == 0 {
		t.Error("empty vocab")
	}
	words, err := m.TopWords(0, 5)
	if err != nil || len(words) != 5 {
		t.Fatalf("TopWords: %v %v", words, err)
	}
	if _, err := m.TopWords(9, 5); err == nil {
		t.Error("out-of-range topic accepted")
	}
	topics, probs := m.InferTopics("goal league derby")
	if len(topics) == 0 || len(topics) != len(probs) {
		t.Errorf("InferTopics = %v %v", topics, probs)
	}
}

func TestStreamEndToEnd(t *testing.T) {
	m := trainTestModel(t)
	st, err := New(m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Feed 200 posts over 100 minutes: even IDs soccer, odd basketball;
	// a few soccer posts get heavily referenced.
	base := int64(1)
	for i := 0; i < 200; i++ {
		text := "goal striker league derby"
		if i%2 == 1 {
			text = "dunk rebound playoffs court"
		}
		p := Post{ID: int64(i + 1), Time: base + int64(i*30), Text: text}
		if i > 10 && i%2 == 0 {
			p.Refs = []int64{1} // retweet an early soccer post
		}
		if err := st.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(base + 200*30); err != nil {
		t.Fatal(err)
	}
	if st.Active() == 0 {
		t.Fatal("no active posts")
	}

	res, err := st.Query(context.Background(), Query{K: 5, Keywords: []string{"goal", "league"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 || res.Score <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// The soccer query must return mostly soccer posts. (The inferred
	// query vector retains a few percent of mass on the other topic, so
	// with this tiny 4-word-per-topic corpus a trailing result slot can
	// legitimately go to a basketball post once soccer words saturate.)
	soccer := 0
	for _, p := range res.Posts {
		if strings.Contains(p.Text, "goal") {
			soccer++
		}
	}
	if soccer*2 <= len(res.Posts) {
		t.Errorf("only %d/%d on-topic posts", soccer, len(res.Posts))
	}
	if !strings.Contains(res.Posts[0].Text, "goal") {
		t.Errorf("top post off-topic: %q", res.Posts[0].Text)
	}
	if res.Evaluated <= 0 || res.Active <= 0 {
		t.Errorf("missing counters: evaluated %d active %d", res.Evaluated, res.Active)
	}
}

func TestStreamQueryAlgorithms(t *testing.T) {
	m := trainTestModel(t)
	st, err := New(m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		text := "goal striker league"
		if i%2 == 1 {
			text = "dunk rebound playoffs"
		}
		if err := st.Add(Post{ID: int64(i + 1), Time: int64(1 + i*10), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(500); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{MTTD, MTTS, TopK} {
		res, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{"dunk"}, Algorithm: alg})
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if len(res.Posts) == 0 {
			t.Errorf("alg %d returned nothing", alg)
		}
	}
	if _, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{"dunk"}, Algorithm: Algorithm(9)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestStreamQueryByVector(t *testing.T) {
	m := trainTestModel(t)
	st, err := New(m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		text := "goal striker league"
		if i%2 == 1 {
			text = "dunk rebound playoffs"
		}
		if err := st.Add(Post{ID: int64(i + 1), Time: int64(1 + i*10), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(400); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(context.Background(), Query{K: 3, Vector: map[int]float64{0: 2, 1: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Error("vector query returned nothing")
	}
	// Invalid vectors.
	if _, err := st.Query(context.Background(), Query{K: 3, Vector: map[int]float64{7: 1}}); err == nil {
		t.Error("out-of-range topic accepted")
	}
	if _, err := st.Query(context.Background(), Query{K: 3, Vector: map[int]float64{0: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := st.Query(context.Background(), Query{K: 3, Vector: map[int]float64{0: 0}}); err == nil {
		t.Error("zero vector accepted")
	}
}

// feedTwoTopicStream loads a stream with soccer/basketball posts and some
// references, flushed to time 1000.
func feedTwoTopicStream(t *testing.T, st *Stream) {
	t.Helper()
	for i := 0; i < 80; i++ {
		text := "goal striker league derby"
		if i%2 == 1 {
			text = "dunk rebound playoffs court"
		}
		p := Post{ID: int64(i + 1), Time: int64(1 + i*12), Text: text}
		if i > 4 && i%4 == 0 {
			p.Refs = []int64{int64(i - 3)}
		}
		if err := st.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(1000); err != nil {
		t.Fatal(err)
	}
}

func newTwoTopicStream(t *testing.T) *Stream {
	t.Helper()
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	feedTwoTopicStream(t, st)
	return st
}

// Query by document (§3.2): a whole document's text goes in as Keywords;
// the tokenizer splits it into the same words a keyword list would give.
func TestQueryByText(t *testing.T) {
	st := newTwoTopicStream(t)
	article := "an article about the league title race and a dramatic goal"
	res, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{article}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Fatal("empty result")
	}
	if !strings.Contains(res.Posts[0].Text, "goal") {
		t.Errorf("top post off-topic for soccer article: %q", res.Posts[0].Text)
	}
	// The document's text and its words, one keyword each, are the same
	// query.
	words, err := st.Query(context.Background(), Query{K: 3, Keywords: strings.Fields(article)})
	if err != nil {
		t.Fatal(err)
	}
	if words.Score != res.Score {
		t.Errorf("document score %v, its words' score %v", res.Score, words.Score)
	}
	if _, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{"zzz qqq www"}}); !errors.Is(err, ErrBadQuery) {
		t.Error("out-of-vocabulary document accepted")
	}
}

// Personalized search (§3.2): a user's recent posts are the Keywords.
func TestQueryPersonalized(t *testing.T) {
	st := newTwoTopicStream(t)
	history := []string{
		"watched the playoffs last night",
		"that dunk was incredible",
		"rebound stats are wild",
	}
	res, err := st.Query(context.Background(), Query{K: 3, Keywords: history, Algorithm: MTTS, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Fatal("empty result")
	}
	if !strings.Contains(res.Posts[0].Text, "dunk") {
		t.Errorf("top post off-topic for basketball fan: %q", res.Posts[0].Text)
	}
	if _, err := st.Query(context.Background(), Query{K: 3}); !errors.Is(err, ErrBadQuery) {
		t.Error("empty history accepted")
	}
}

// A Vector query is the same bits on every call: its weights are summed
// in topic order, never in map-iteration order.
func TestVectorQueryDeterministic(t *testing.T) {
	m, err := TrainModel(corpus(200), WithTopics(6), WithIterations(40), WithSeed(1), WithPriors(0.5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Posts mixing both vocabularies spread over many topics, so the
	// score feels the last bit of every weight.
	posts := genPosts(120, 5)
	if _, err := st.AddBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(posts[len(posts)-1].Time); err != nil {
		t.Fatal(err)
	}
	q := Query{K: 5, Vector: map[int]float64{0: .1, 1: .2, 2: .3, 3: .7, 4: 1e-3, 5: .13}}
	var sum float64
	for topic := 0; topic < 6; topic++ {
		sum += q.Vector[topic]
	}

	first, err := st.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		x, err := queryVector(m, q)
		if err != nil {
			t.Fatal(err)
		}
		for j, topic := range x.Topics {
			if want := q.Vector[int(topic)] / sum; topic != int32(j) || math.Float64bits(x.Probs[j]) != math.Float64bits(want) {
				t.Fatalf("call %d: x[%d] = topic %d, %v; want topic %d, %v", i, j, topic, x.Probs[j], j, want)
			}
		}
		res, err := st.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Score) != math.Float64bits(first.Score) {
			t.Fatalf("call %d: score %v, first call %v", i, res.Score, first.Score)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	m := trainTestModel(t)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(m, Options{Window: time.Minute, Bucket: time.Hour}); err == nil {
		t.Error("bucket > window accepted")
	}
	st, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 0}); err == nil {
		t.Error("zero time accepted")
	}
	if err := st.Add(Post{ID: 1, Time: 100, Text: "goal"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 2, Time: 50, Text: "goal"}); err == nil {
		t.Error("out-of-order post accepted")
	}
	if err := st.Flush(10); err == nil {
		t.Error("flush before last post accepted")
	}
	if _, err := st.Query(context.Background(), Query{K: 0, Keywords: []string{"goal"}}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := st.Query(context.Background(), Query{K: 3}); err == nil {
		t.Error("query without keywords or vector accepted")
	}
	if _, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{"zzzzunknown"}}); err == nil {
		t.Error("all-unknown keywords accepted")
	}
}

func TestStreamExpiry(t *testing.T) {
	m := trainTestModel(t)
	st, err := New(m, Options{Window: 10 * time.Second, Bucket: time.Second, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Add(Post{ID: int64(i + 1), Time: int64(1 + i), Text: "goal striker"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(20); err != nil {
		t.Fatal(err)
	}
	firstActive := st.Active()
	// Jump far ahead: everything expires.
	if err := st.Flush(1000); err != nil {
		t.Fatal(err)
	}
	if st.Active() != 0 {
		t.Errorf("active = %d after drain (was %d)", st.Active(), firstActive)
	}
	res, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{"goal"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) != 0 {
		t.Errorf("query on drained stream returned %d posts", len(res.Posts))
	}
}

func TestBucketingMakesPostsVisibleLazily(t *testing.T) {
	m := trainTestModel(t)
	st, err := New(m, Options{Window: time.Hour, Bucket: 10 * time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 30, Text: "goal striker"}); err != nil {
		t.Fatal(err)
	}
	// Not yet visible: its bucket has not completed.
	if st.Active() != 0 {
		t.Error("post visible before bucket completion")
	}
	// A post in the next bucket forces the first bucket's ingestion.
	if err := st.Add(Post{ID: 2, Time: 700, Text: "dunk rebound"}); err != nil {
		t.Fatal(err)
	}
	if st.Active() != 1 {
		t.Errorf("active = %d, want 1 (first bucket flushed)", st.Active())
	}
	if err := st.Flush(700); err != nil {
		t.Fatal(err)
	}
	if st.Active() != 2 {
		t.Errorf("active = %d, want 2", st.Active())
	}
}

func ExampleStream_Query() {
	model, err := TrainModel([]string{
		"goal striker league derby penalty",
		"goal keeper champions league final",
		"dunk rebound playoffs court buzzer",
		"dunk triple playoffs quarter court",
		"striker penalty goal midfield derby",
		"rebound court playoffs dunk buzzer",
	}, WithTopics(2), WithIterations(30), WithSeed(7), WithPriors(0.5, 0.01))
	if err != nil {
		panic(err)
	}
	st, err := New(model, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		panic(err)
	}
	st.Add(Post{ID: 1, Time: 10, Text: "late goal wins the derby"})
	st.Add(Post{ID: 2, Time: 20, Text: "what a dunk in the playoffs"})
	st.Flush(60)
	res, err := st.Query(context.Background(), Query{K: 1, Keywords: []string{"league", "goal"}})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Posts), res.Posts[0].ID)
	// Output: 1 1
}
