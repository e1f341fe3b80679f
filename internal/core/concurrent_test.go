package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// concurrentFixture builds a random stream pre-partitioned into buckets,
// sized so that ingest and queries genuinely overlap under the race
// detector without making the test slow.
type concurrentFixture struct {
	model   *topicmodel.Model
	buckets []stream.Bucket
	queries []Query
	windowT stream.Time
}

func newConcurrentFixture(seed int64) concurrentFixture {
	rng := rand.New(rand.NewSource(seed))
	const (
		z, v      = 12, 80
		elements  = 600
		bucketLen = 20
		windowT   = 120
	)
	elems := make([]*stream.Element, elements)
	for i := range elems {
		elems[i] = testutil.RandElement(rng, i+1, z, v, 2)
	}
	buckets, err := stream.Partition(elems, bucketLen)
	if err != nil {
		panic(err)
	}
	queries := make([]Query, 6)
	for i := range queries {
		alg := []Algorithm{MTTS, MTTD, TopkRep}[i%3]
		queries[i] = Query{K: 4, X: testutil.RandQuery(rng, z), Epsilon: 0.25, Algorithm: alg}
	}
	return concurrentFixture{
		model:   testutil.RandModel(rng, z, v),
		buckets: buckets,
		queries: queries,
		windowT: windowT,
	}
}

func (f concurrentFixture) newEngine(t testing.TB) *Engine {
	t.Helper()
	g, err := NewEngine(Config{
		Model:        f.model,
		WindowLength: f.windowT,
		Params:       score.Params{Lambda: 0.5, Eta: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// resultKey flattens the parts of a Result that must be bit-identical for
// two runs observing the same bucket.
type resultKey struct {
	score     float64
	active    int
	evaluated int
	retrieved int
	ids       string
}

func keyOf(r Result) resultKey {
	var ids []byte
	for _, e := range r.Elements {
		ids = append(ids, byte(e.ID), byte(e.ID>>8), byte(e.ID>>16))
	}
	return resultKey{
		score:     r.Score,
		active:    r.ActiveAtQuery,
		evaluated: r.Evaluated,
		retrieved: r.Retrieved,
		ids:       string(ids),
	}
}

// TestConcurrentQueryConsistency is the snapshot-isolation stress test: many
// query goroutines race a writer ingesting buckets, under -race. Every
// result must be byte-identical to the golden result computed for the bucket
// the query reports having observed — i.e. no query ever sees a torn,
// half-ingested state.
func TestConcurrentQueryConsistency(t *testing.T) {
	f := newConcurrentFixture(2027)

	// Golden pass: single-threaded, query after every bucket.
	golden := make([]map[int]resultKey, len(f.buckets)+1)
	gg := f.newEngine(t)
	record := func(seq int64) {
		m := make(map[int]resultKey, len(f.queries))
		for qi, q := range f.queries {
			res, err := gg.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.BucketSeq != seq {
				t.Fatalf("golden query observed bucket %d, want %d", res.BucketSeq, seq)
			}
			m[qi] = keyOf(res)
		}
		golden[seq] = m
	}
	record(0)
	for i, b := range f.buckets {
		if err := gg.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
		record(int64(i + 1))
	}

	// Concurrent pass.
	g := f.newEngine(t)
	var done atomic.Bool
	var checked atomic.Int64
	var wg sync.WaitGroup
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				qi := (r + i) % len(f.queries)
				res, err := g.Query(f.queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				seq := res.BucketSeq
				if seq < 0 || seq > int64(len(f.buckets)) {
					t.Errorf("impossible bucket seq %d", seq)
					return
				}
				if got, want := keyOf(res), golden[seq][qi]; got != want {
					t.Errorf("query %d at bucket %d: result diverged from single-threaded golden run\n got %+v\nwant %+v",
						qi, seq, got, want)
					return
				}
				checked.Add(1)
			}
		}(r)
	}
	// Diagnostics reader: the APIs the old engine raced on must be safe
	// and self-consistent mid-ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			// The list pass is part of the bucket application, so within
			// one snapshot its wall time cannot exceed UpdateTime
			// (separate Engine calls may straddle a publish, so pin once).
			snap := g.acquire()
			st, busy := snap.stats, snap.listBusy
			snap.release()
			if busy > st.UpdateTime {
				t.Errorf("list pass time %v exceeds update time %v", busy, st.UpdateTime)
				return
			}
			if ss := g.ShardStats(); len(ss) != 1 || ss[0].Busy < busy {
				t.Errorf("ShardStats = %+v, want one entry with Busy >= %v", ss, busy)
				return
			}
			for topic := 0; topic < f.model.Z; topic++ {
				// Each call pins its own snapshot; a torn read would
				// surface as an unordered or internally broken dump.
				items := g.ListItems(topic)
				for i := 1; i < len(items); i++ {
					a, b := items[i-1], items[i]
					if a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
						t.Errorf("RL%d dump out of ranked order at %d: %+v before %+v", topic, i, a, b)
						return
					}
				}
			}
		}
	}()

	for _, b := range f.buckets {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if checked.Load() < int64(len(f.buckets)) {
		t.Logf("only %d concurrent queries completed (slow machine?)", checked.Load())
	}
	if g.Now() != gg.Now() || g.NumActive() != gg.NumActive() {
		t.Fatalf("final state diverged: now %d/%d active %d/%d", g.Now(), gg.Now(), g.NumActive(), gg.NumActive())
	}
}

// A pinned query must keep seeing its bucket even after later ingests
// complete — and the engine must not deadlock waiting for it as long as at
// most one further bucket is published before release.
func TestQueryPinsBucketAcrossIngest(t *testing.T) {
	f := newConcurrentFixture(47)
	g := f.newEngine(t)
	if err := g.Ingest(f.buckets[0].End, f.buckets[0].Elems); err != nil {
		t.Fatal(err)
	}
	snap := g.acquire()
	v := snap.view()
	before, err := v.mtts(context.Background(), f.queries[0], new(arena))
	if err != nil {
		t.Fatal(err)
	}

	if err := g.Ingest(f.buckets[1].End, f.buckets[1].Elems); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still answers for bucket 1.
	again, err := v.mtts(context.Background(), f.queries[0], new(arena))
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(before) != keyOf(again) || again.BucketSeq != 1 {
		t.Fatalf("pinned snapshot drifted: %+v vs %+v", keyOf(before), keyOf(again))
	}
	// The engine has moved on.
	if res, err := g.Query(f.queries[0]); err != nil || res.BucketSeq != 2 {
		t.Fatalf("live query at bucket %d (err %v), want 2", res.BucketSeq, err)
	}
	snap.release()
	// After release the writer can recycle the buffer freely.
	if err := g.Ingest(f.buckets[2].End, f.buckets[2].Elems); err != nil {
		t.Fatal(err)
	}
	if res, err := g.Query(f.queries[0]); err != nil || res.BucketSeq != 3 {
		t.Fatalf("live query at bucket %d (err %v), want 3", res.BucketSeq, err)
	}
}

// Duplicate IDs and out-of-bucket timestamps must be rejected before either
// buffer mutates, so the engine stays usable after the error.
func TestIngestValidationKeepsBuffersInSync(t *testing.T) {
	f := newConcurrentFixture(53)
	g := f.newEngine(t)
	for _, b := range f.buckets[:3] {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	now := g.Now()
	dup := f.buckets[0].Elems[0] // already-ingested ID, stale TS
	if err := g.Ingest(now+10, []*stream.Element{dup}); err == nil {
		t.Fatal("stale duplicate accepted")
	}
	fresh := *f.buckets[0].Elems[0]
	fresh.ID = 100000
	fresh.TS = now + 5
	fresh.Refs = nil
	late := *f.buckets[0].Elems[1]
	late.ID = 100001
	late.TS = now + 20 // beyond the bucket end
	late.Refs = nil
	if err := g.Ingest(now+10, []*stream.Element{&fresh, &late}); err == nil {
		t.Fatal("out-of-bucket element accepted")
	}
	if err := g.Ingest(now+10, []*stream.Element{&fresh, &fresh}); err == nil {
		t.Fatal("within-batch duplicate accepted")
	}
	// The rejected buckets must have left no trace: the next good bucket
	// keeps both buffers identical (checked via golden single engine).
	if err := g.Ingest(now+10, []*stream.Element{&fresh}); err != nil {
		t.Fatal(err)
	}
	ref := f.newEngine(t)
	for _, b := range f.buckets[:3] {
		if err := ref.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Ingest(now+10, []*stream.Element{&fresh}); err != nil {
		t.Fatal(err)
	}
	// Ingest once more so the engine's recycled buffer (the one the failed
	// calls could have corrupted) becomes the published one.
	for _, g2 := range []*Engine{g, ref} {
		if err := g2.Ingest(now+30, nil); err != nil {
			t.Fatal(err)
		}
	}
	for topic := 0; topic < f.model.Z; topic++ {
		a, b := ref.ListItems(topic), g.ListItems(topic)
		if len(a) != len(b) {
			t.Fatalf("RL%d diverged after rejected buckets: %d vs %d items", topic, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("RL%d[%d] diverged: %+v vs %+v", topic, i, b[i], a[i])
			}
		}
	}
	if g.NumActive() != ref.NumActive() {
		t.Fatalf("active %d, want %d", g.NumActive(), ref.NumActive())
	}
}

// Queries answered concurrently must stay within the approximation bounds —
// a smoke check that the snapshot path runs the same algorithms, not a
// degraded variant.
func TestConcurrentQueryBounds(t *testing.T) {
	f := newConcurrentFixture(61)
	g := f.newEngine(t)
	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			ts, err := g.Query(Query{K: 4, X: f.queries[0].X, Epsilon: 0.1, Algorithm: MTTS})
			if err != nil {
				t.Error(err)
				return
			}
			td, err := g.Query(Query{K: 4, X: f.queries[0].X, Epsilon: 0.1, Algorithm: MTTD})
			if err != nil {
				t.Error(err)
				return
			}
			if ts.Score < 0 || td.Score < 0 || math.IsNaN(ts.Score) || math.IsNaN(td.Score) {
				t.Errorf("invalid scores: %v / %v", ts.Score, td.Score)
				return
			}
		}
	}()
	for _, b := range f.buckets {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
}
