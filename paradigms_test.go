package ksir

import (
	"context"
	"strings"
	"testing"
	"time"
)

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

func TestQueryByText(t *testing.T) {
	st := newTwoTopicStream(t)
	res, err := st.QueryByText(context.Background(), 3, "an article about the league title race and a dramatic goal")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Fatal("empty result")
	}
	if !strings.Contains(res.Posts[0].Text, "goal") {
		t.Errorf("top post off-topic for soccer article: %q", res.Posts[0].Text)
	}
	if _, err := st.QueryByText(context.Background(), 3, "zzz qqq www"); err == nil {
		t.Error("out-of-vocabulary document accepted")
	}
}

func TestQueryPersonalized(t *testing.T) {
	st := newTwoTopicStream(t)
	history := []string{
		"watched the playoffs last night",
		"that dunk was incredible",
		"rebound stats are wild",
	}
	res, err := st.QueryPersonalized(context.Background(), 3, history, WithAlgorithm(MTTS), WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Fatal("empty result")
	}
	if !strings.Contains(res.Posts[0].Text, "dunk") {
		t.Errorf("top post off-topic for basketball fan: %q", res.Posts[0].Text)
	}
	if _, err := st.QueryPersonalized(context.Background(), 3, nil); err == nil {
		t.Error("empty history accepted")
	}
}

func TestQueryMany(t *testing.T) {
	st := newTwoTopicStream(t)
	queries := []Query{
		{K: 2, Keywords: []string{"goal"}},
		{K: 2, Keywords: []string{"dunk"}},
		{K: 3, Keywords: []string{"league", "playoffs"}},
		{K: 1, Keywords: []string{"derby"}},
	}
	results, err := st.QueryMany(context.Background(), queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if len(r.Posts) == 0 {
			t.Errorf("query %d returned nothing", i)
		}
		if len(r.Posts) > queries[i].K {
			t.Errorf("query %d returned %d > k=%d", i, len(r.Posts), queries[i].K)
		}
	}
	// Batch results must match individual queries (same window state).
	solo, err := st.Query(context.Background(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if solo.Score != results[0].Score {
		t.Errorf("batch result diverges: %v vs %v", solo.Score, results[0].Score)
	}
	// Errors propagate.
	if _, err := st.QueryMany(context.Background(), []Query{{K: 0}}, 2); err == nil {
		t.Error("invalid query in batch accepted")
	}
	// Degenerate parallelism values normalize.
	if _, err := st.QueryMany(context.Background(), queries, -1); err != nil {
		t.Error(err)
	}
}
