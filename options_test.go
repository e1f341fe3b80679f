package ksir

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// The paper's λ knob must be configurable at both extremes: λ=0 (pure
// influence) was historically impossible because Options.fill treated the
// zero value as "unset". A nil Lambda is unset; a pointer to 0 is λ=0.
func TestLambdaExtremesConfigurable(t *testing.T) {
	m := trainTestModel(t)
	base := Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}
	withLambda := func(l float64) Options {
		o := base
		o.Lambda = &l
		return o
	}

	zero, err := New(m, withLambda(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := *zero.Options().Lambda; got != 0 {
		t.Fatalf("Lambda 0 resolved to %v, want 0", got)
	}
	one, err := New(m, withLambda(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := *one.Options().Lambda; got != 1 {
		t.Fatalf("Lambda 1 resolved to %v, want 1", got)
	}
	// An unset Lambda defaults to 0.5.
	def, err := New(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := *def.Options().Lambda; got != 0.5 {
		t.Fatalf("default lambda = %v, want 0.5", got)
	}

	// The stream shares λ with nobody: neither the caller's variable nor
	// a copy handed out by Options can write through to it.
	l := 0.25
	alias, err := New(m, Options{Window: time.Hour, Bucket: time.Minute, Lambda: &l, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	l = 0.75
	*alias.Options().Lambda = 0.9
	if got := *alias.Options().Lambda; got != 0.25 {
		t.Fatalf("lambda after writes through aliases = %v, want 0.25", got)
	}

	// Out-of-range and NaN are typed errors.
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := New(m, withLambda(bad)); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Lambda %v err = %v, want ErrBadOptions", bad, err)
		}
	}

	// Behavioral check at the extremes: feed identical data with one
	// heavily-referenced post; the λ=0 (influence-only) and λ=1
	// (semantics-only) objectives must disagree about its value.
	for _, st := range []*Stream{zero, one} {
		for i := 0; i < 30; i++ {
			p := Post{ID: int64(i + 1), Time: int64(1 + i*10), Text: "goal striker league"}
			if i > 2 {
				p.Refs = []int64{1} // post 1 accumulates influence
			}
			if err := st.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(400); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{K: 2, Keywords: []string{"goal", "league"}}
	resZero, err := zero.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := one.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resZero.Posts) == 0 || len(resOne.Posts) == 0 {
		t.Fatalf("empty results: λ=0 %d posts, λ=1 %d posts", len(resZero.Posts), len(resOne.Posts))
	}
	if resZero.Score == resOne.Score {
		t.Errorf("λ=0 and λ=1 gave identical scores (%v); lambda not reaching the scorer", resZero.Score)
	}
	// Under pure influence the referenced post must lead the result.
	if resZero.Posts[0].ID != 1 {
		t.Errorf("λ=0 top post = %d, want the referenced post 1", resZero.Posts[0].ID)
	}
}

// A cancelled context aborts Query with ctx.Err, before or during the
// ranked-list descent.
func TestQueryContextCancellation(t *testing.T) {
	st := newTwoTopicStream(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{MTTD, MTTS, TopK} {
		_, err := st.Query(ctx, Query{K: 3, Keywords: []string{"goal"}, Algorithm: alg})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("alg %v: err = %v, want context.Canceled", alg, err)
		}
	}
	// A nil context is treated as Background and succeeds.
	var nilCtx context.Context
	if _, err := st.Query(nilCtx, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	m := trainTestModel(t)
	st, err := New(m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 0}); !errors.Is(err, ErrBadPost) {
		t.Errorf("zero-time err = %v, want ErrBadPost", err)
	}
	if err := st.Add(Post{ID: 1, Time: 100, Text: "goal"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 2, Time: 50, Text: "goal"}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v, want ErrOutOfOrder", err)
	}
	if err := st.Flush(10); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("backwards flush err = %v, want ErrOutOfOrder", err)
	}
	// Duplicate IDs are rejected at Add time — against the active window
	// (post 1 was ingested by the flush) and against the pending buffer —
	// so a bad post cannot poison the bucket it would be batched into.
	if err := st.Flush(100); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 200, Text: "goal"}); !errors.Is(err, ErrBadPost) {
		t.Errorf("window-duplicate err = %v, want ErrBadPost", err)
	}
	if err := st.Add(Post{ID: 7, Time: 200, Text: "goal"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 7, Time: 210, Text: "goal"}); !errors.Is(err, ErrBadPost) {
		t.Errorf("pending-duplicate err = %v, want ErrBadPost", err)
	}
	if err := st.Flush(300); err != nil {
		t.Fatalf("flush after rejected duplicates: %v", err)
	}
	// An ID stays taken after its post leaves the window: the archive
	// remembers every ID the stream ever ingested.
	if err := st.Flush(5000); err != nil {
		t.Fatal(err)
	}
	if n := st.Active(); n != 0 {
		t.Fatalf("%d posts still active after the window passed", n)
	}
	if err := st.Add(Post{ID: 1, Time: 5100, Text: "goal"}); !errors.Is(err, ErrBadPost) {
		t.Errorf("expired-duplicate err = %v, want ErrBadPost", err)
	}

	ctx := context.Background()
	for _, q := range []Query{
		{K: 0, Keywords: []string{"goal"}},
		{K: 3},
		{K: 3, Keywords: []string{"zzzzunknown"}},
		{K: 3, Vector: map[int]float64{9: 1}},
		{K: 3, Keywords: []string{"goal"}, Algorithm: Algorithm(9)},
	} {
		if _, err := st.Query(ctx, q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("query %+v err = %v, want ErrBadQuery", q, err)
		}
	}
	if _, err := st.Subscribe(ctx, Query{K: 0, Keywords: []string{"x"}}, time.Hour, func(Result) {}); !errors.Is(err, ErrBadSubscription) {
		t.Errorf("bad subscription err = %v, want ErrBadSubscription", err)
	}
	if _, err := New(m, Options{Window: time.Minute, Bucket: time.Hour}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("bad options err = %v, want ErrBadOptions", err)
	}
}

// Stream time counts whole seconds, so a Window or Bucket with a fraction of
// a second is refused up front: a sub-second bucket used to truncate to a
// zero-length one and panic the writer with a divide by zero on the second
// Add. A subscription's refresh interval is held to the same unit instead
// of being silently truncated.
func TestFractionalSecondsRejected(t *testing.T) {
	m := trainTestModel(t)
	h := NewHub()
	defer h.CloseAll()
	for _, v := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 90*time.Second + 500*time.Millisecond} {
		for _, tc := range []struct {
			opts Options
			bad  time.Duration
		}{
			{Options{Window: time.Hour, Bucket: v}, v},
			{Options{Window: 2*time.Hour + v, Bucket: time.Minute}, 2*time.Hour + v},
		} {
			opts := tc.opts
			if _, err := New(m, opts); !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), tc.bad.String()) {
				t.Errorf("New(%+v) err = %v, want ErrBadOptions naming %v", opts, err, tc.bad)
			}
			if _, err := h.Create("s", m, opts); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Create(%+v) err = %v, want ErrBadOptions", opts, err)
			}
		}
	}
	if n := h.Len(); n != 0 {
		t.Fatalf("hub registered %d streams with fractional-second options", n)
	}

	hs, err := h.Create("ok", m, Options{Window: time.Hour, Bucket: time.Second, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{K: 3, Keywords: []string{"goal"}}
	for _, every := range []time.Duration{1500 * time.Millisecond, 90*time.Second + 500*time.Millisecond} {
		if _, err := hs.Subscribe(context.Background(), q, every, func(Result) {}); !errors.Is(err, ErrBadSubscription) {
			t.Errorf("Subscribe(every=%v) err = %v, want ErrBadSubscription", every, err)
		}
	}
	for i, p := range genPosts(5, 58) {
		p.Time = int64(i + 1)
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
}
