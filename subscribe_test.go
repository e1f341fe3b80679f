package ksir

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSubscribeFiresOnSchedule(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var fired []int64
	sub, err := st.Subscribe(context.Background(), Query{K: 2, Keywords: []string{"goal"}}, 5*time.Minute,
		func(res Result) { fired = append(fired, st.Stats().Now) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Subscriptions != 1 {
		t.Fatal("subscription not registered")
	}
	// 30 minutes of posts, one per minute.
	for i := 0; i < 30; i++ {
		text := "goal striker league"
		if i%2 == 1 {
			text = "dunk rebound playoffs"
		}
		if err := st.Add(Post{ID: int64(i + 1), Time: int64(1 + i*60), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(1800); err != nil {
		t.Fatal(err)
	}
	// Refresh every 5 min over 30 min ⇒ ~6 firings.
	if len(fired) < 4 || len(fired) > 7 {
		t.Errorf("fired %d times at %v, want ~6", len(fired), fired)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Errorf("firings not strictly ordered: %v", fired)
		}
	}
	st.Unsubscribe(sub)
	if st.Stats().Subscriptions != 0 {
		t.Error("unsubscribe failed")
	}
	// No further firings.
	n := len(fired)
	if err := st.Add(Post{ID: 99, Time: 2400, Text: "goal"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(3000); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Error("fired after unsubscribe")
	}
}

func TestSubscribeOnlyOnChange(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var results []Result
	_, err = st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"goal"}}, time.Minute,
		func(res Result) { results = append(results, res) }, OnlyOnChange())
	if err != nil {
		t.Fatal(err)
	}
	// One matching post, then a long quiet stretch: the result set stops
	// changing so refreshes must be suppressed.
	if err := st.Add(Post{ID: 1, Time: 30, Text: "goal striker league"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(600); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("fired %d times, want 1 (unchanged results suppressed)", len(results))
	}
	// A better post arrives: fires again.
	if err := st.Add(Post{ID: 2, Time: 660, Text: "goal goal striker league derby"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(780); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("fired %d times after change, want 2", len(results))
	}
	if results[1].Posts[0].ID != 2 {
		t.Errorf("second firing has post %d, want 2", results[1].Posts[0].ID)
	}
}

func TestSubscribeValidation(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := func(Result) {}
	if _, err := st.Subscribe(context.Background(), Query{K: 0, Keywords: []string{"x"}}, time.Hour, h); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := st.Subscribe(context.Background(), Query{K: 1}, time.Hour, h); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"x"}}, time.Second, h); err == nil {
		t.Error("interval below bucket accepted")
	}
	if _, err := st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"x"}}, time.Hour, nil); err == nil {
		t.Error("nil handler accepted")
	}
	st.Unsubscribe(nil) // must not panic
}

// A failing standing query must not abort the ingest that triggered it:
// the error goes to the subscription's hook, if it has one, and is counted
// in Failures; healthy subscriptions still fire, and the bucket lands.
func TestSubscriptionErrorIsolation(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	// "zzzz" passes Subscribe validation (non-empty keywords) but fails at
	// refresh time: no keyword is in the model vocabulary.
	var subHookErrs []error
	bad, err := st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"zzzz"}}, time.Minute,
		func(Result) { t.Error("failing subscription delivered a result") },
		OnError(func(err error) { subHookErrs = append(subHookErrs, err) }))
	if err != nil {
		t.Fatal(err)
	}
	// A second failing subscription has no hook: its failures are only
	// counted.
	hookless, err := st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"qqqq"}}, time.Minute,
		func(Result) { t.Error("failing subscription delivered a result") })
	if err != nil {
		t.Fatal(err)
	}
	var good []Result
	if _, err := st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"goal"}}, time.Minute,
		func(res Result) { good = append(good, res) }); err != nil {
		t.Fatal(err)
	}

	if err := st.Add(Post{ID: 1, Time: 30, Text: "goal striker league"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(120); err != nil {
		t.Fatalf("ingest aborted by failing subscription: %v", err)
	}
	if len(good) == 0 {
		t.Error("healthy subscription starved by the failing one")
	}
	if len(subHookErrs) == 0 || !errors.Is(subHookErrs[0], ErrBadQuery) {
		t.Errorf("per-subscription hook errs = %v, want ErrBadQuery", subHookErrs)
	}
	if bad.Failures() == 0 || hookless.Failures() == 0 {
		t.Errorf("failure counters = %d (hooked), %d (hookless), want both > 0", bad.Failures(), hookless.Failures())
	}
	// Each delivered result carries the bucket sequence it was computed at.
	for _, res := range good {
		if res.Bucket <= 0 {
			t.Errorf("subscription result missing bucket seq: %+v", res.Bucket)
		}
	}
}

// A subscription's context bounds its lifetime: once cancelled it stops
// firing and is removed at the next bucket boundary.
func TestSubscribeContextCancel(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	var fired int
	if _, err := st.Subscribe(ctx, Query{K: 1, Keywords: []string{"goal"}}, time.Minute,
		func(Result) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 30, Text: "goal striker"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(120); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("subscription never fired before cancel")
	}
	n := fired
	cancel()
	if err := st.Add(Post{ID: 2, Time: 200, Text: "goal league"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(300); err != nil {
		t.Fatal(err)
	}
	if fired != n {
		t.Error("subscription fired after its context was cancelled")
	}
	if st.Stats().Subscriptions != 0 {
		t.Errorf("cancelled subscription still registered: %d", st.Stats().Subscriptions)
	}
}

// Handlers run in the committing caller mid-sweep; a handler
// unsubscribing itself (one-shot standing query) must neither fire again
// nor be resurrected by the sweep's bookkeeping.
func TestSubscriptionReentrantUnsubscribe(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var fired int
	var sub *Subscription
	sub, err = st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"goal"}}, time.Minute,
		func(Result) {
			fired++
			st.Unsubscribe(sub) // one-shot
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 30, Text: "goal striker"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(120); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if st.Stats().Subscriptions != 0 {
		t.Fatalf("subscription resurrected: %d registered", st.Stats().Subscriptions)
	}
	// Further changing buckets must not re-fire the removed subscription.
	if err := st.Add(Post{ID: 2, Time: 150, Text: "goal goal league"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(240); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("one-shot subscription fired %d times", fired)
	}
}

// A handler registering a new standing query mid-sweep: the new
// subscription must survive the sweep (not be dropped) and start firing
// at a later bucket boundary.
func TestSubscriptionReentrantSubscribe(t *testing.T) {
	st, err := New(trainTestModel(t), Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var childFired int
	registered := false
	_, err = st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"goal"}}, time.Minute,
		func(Result) {
			if registered {
				return
			}
			registered = true
			if _, err := st.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"goal"}}, time.Minute,
				func(Result) { childFired++ }); err != nil {
				t.Errorf("re-entrant subscribe: %v", err)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Post{ID: 1, Time: 30, Text: "goal striker"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(120); err != nil {
		t.Fatal(err)
	}
	if !registered {
		t.Fatal("parent never fired")
	}
	if st.Stats().Subscriptions != 2 {
		t.Fatalf("re-entrant subscription dropped: %d registered", st.Stats().Subscriptions)
	}
	if err := st.Add(Post{ID: 2, Time: 150, Text: "goal goal league"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(300); err != nil {
		t.Fatal(err)
	}
	if childFired == 0 {
		t.Error("re-entrant subscription never fired")
	}
}

func TestExplainResult(t *testing.T) {
	st := newTwoTopicStream(t)
	q := Query{K: 3, Keywords: []string{"goal", "league"}}
	res, err := st.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := st.Explain(res, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != len(res.Posts) {
		t.Fatalf("explanations = %d, posts = %d", len(ex), len(res.Posts))
	}
	var total float64
	for i, e := range ex {
		if e.Post.ID != res.Posts[i].ID {
			t.Errorf("explanation %d order mismatch", i)
		}
		if e.Gain < 0 || e.NewWords < 0 {
			t.Errorf("bad explanation %+v", e)
		}
		total += e.Gain
	}
	if total <= 0 || total > res.Score*1.0001 || total < res.Score*0.9999 {
		t.Errorf("explanations total %v, result score %v", total, res.Score)
	}
	// First selection covers new words.
	if ex[0].NewWords == 0 {
		t.Error("first post must contribute new words")
	}
	// Explain with a bogus query errors.
	if _, err := st.Explain(res, Query{K: 3}); err == nil {
		t.Error("query without keywords accepted")
	}
}

// A result explained after a later bucket was published would be scored
// against a window it was not computed on — here the new bucket's posts
// reference the answer's, so its influence gains grow and no longer sum to
// the result's score. Explain refuses instead, naming both buckets.
func TestExplainRefusesStaleResult(t *testing.T) {
	st := newTwoTopicStream(t)
	q := Query{K: 3, Keywords: []string{"goal", "league"}}
	res, err := st.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Posts {
		if err := st.Add(Post{ID: int64(1000 + i), Time: 1010, Text: "goal league", Refs: []int64{p.ID}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(1060); err != nil {
		t.Fatal(err)
	}
	_, err = st.Explain(res, q)
	if !errors.Is(err, ErrNotActive) {
		t.Fatalf("stale explain err = %v, want ErrNotActive", err)
	}
	for _, b := range []int64{res.Bucket, st.Stats().Bucket} {
		if !strings.Contains(err.Error(), strconv.FormatInt(b, 10)) {
			t.Errorf("error %q does not name bucket %d", err, b)
		}
	}
	// Re-queried, the same stream explains again, and the gains add up.
	if res, err = st.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ex, err := st.Explain(res, q)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, e := range ex {
		total += e.Gain
	}
	if math.Abs(total-res.Score) > 1e-9*res.Score {
		t.Errorf("explanations total %v, result score %v", total, res.Score)
	}
}

// Registration never enters the commit queue, so a handler — which runs in
// the committing caller, under the stream's lock — may subscribe and
// unsubscribe on its own durable stream and return, while other goroutines do the same and query. Each
// parent refresh registers a one-shot child; every child fires once and
// removes itself, so the count that stays registered is the parent plus the
// children not yet due.
func TestSubscriptionReentrantDurable(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{K: 2, Keywords: []string{"goal"}}
	var parentFired, childFired int // touched under the stream's lock only
	if _, err := hs.Subscribe(ctx, q, time.Minute, func(Result) {
		parentFired++
		var child *Subscription
		child, err := hs.Subscribe(ctx, q, time.Minute, func(Result) {
			childFired++
			hs.Unsubscribe(child)
		})
		if err != nil {
			t.Errorf("subscribe from a handler: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	churned := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			sub, err := hs.Subscribe(ctx, q, time.Minute, func(Result) {})
			if err != nil {
				churned <- err
				return
			}
			hs.Unsubscribe(sub)
			if _, err := hs.Query(ctx, q); err != nil {
				churned <- err
				return
			}
		}
	}()
	posts := genPosts(400, 11)
	for i := 0; i < len(posts); i += 7 {
		if _, err := hs.AddBatch(posts[i:min(i+7, len(posts))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs.Flush(posts[len(posts)-1].Time + 60); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	if parentFired == 0 || childFired == 0 {
		t.Fatalf("parent fired %d times, children %d", parentFired, childFired)
	}
	if got, want := hs.Stats().Subscriptions, 1+parentFired-childFired; got != want {
		t.Errorf("%d subscriptions registered, want %d (the parent and %d pending children)", got, want, want-1)
	}
}

// Subscribe and Hibernate racing on a durable stream: either the
// hibernation is refused as busy, or it completes first and Subscribe
// reactivates the stream. A registered subscription never sits on a
// hibernated stream.
func TestSubscribeRacesHibernate(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.AddBatch(genPosts(120, 5)); err != nil {
		t.Fatal(err)
	}
	q := Query{K: 2, Keywords: []string{"goal"}}
	for i := 0; i < 40; i++ {
		var sub *Subscription
		var subErr, hibErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			sub, subErr = hs.Subscribe(context.Background(), q, time.Minute, func(Result) {})
		}()
		go func() {
			defer wg.Done()
			hibErr = hs.Hibernate()
		}()
		wg.Wait()
		if subErr != nil {
			t.Fatal(subErr)
		}
		if hibErr != nil && !errors.Is(hibErr, ErrStreamBusy) {
			t.Fatal(hibErr)
		}
		if st := hs.Stats(); !st.Residency.Resident || st.Subscriptions != 1 {
			t.Fatalf("round %d: resident %v with %d subscriptions", i, st.Residency.Resident, st.Subscriptions)
		}
		hs.Unsubscribe(sub)
		if err := hs.Hibernate(); err != nil {
			t.Fatalf("round %d: hibernate after the unsubscribe: %v", i, err)
		}
	}
}
