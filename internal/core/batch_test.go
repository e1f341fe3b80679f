package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// TestDeferredPublishBatchEquivalence is the correctness bar of the
// writer-pipeline's apply bracket: a BeginBatch/EndBatch bracket over a
// multi-bucket run publishes exactly one snapshot (readers keep the
// pre-batch bucket until EndBatch), the published state is byte-identical
// to an unbracketed twin's, and the multi-bucket replay queue leaves the
// recycled buffer byte-identical to the front — so deferring publication
// changes cost, never semantics.
func TestDeferredPublishBatchEquivalence(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		const z, v, windowT = 10, 80, 40
		model := testutil.RandModel(rng, z, v)
		mk := func() *Engine {
			g, err := NewEngine(Config{Model: model, WindowLength: windowT, Params: paperConfig().Params})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		gBatch, gPlain := mk(), mk()

		buckets := randomDeltaStream(rng, z, v, 48, windowT)
		for i := 0; i < len(buckets); {
			k := 1 + rng.Intn(4) // bracket size, mixing singles and groups
			if i+k > len(buckets) {
				k = len(buckets) - i
			}
			seqBefore := gBatch.front.Load().seq
			if k > 1 {
				gBatch.BeginBatch()
			}
			for j := 0; j < k; j++ {
				b := buckets[i+j]
				if err := gBatch.Ingest(b.now, cloneBatch(b.batch)); err != nil {
					t.Fatalf("seed %d bucket %d (batch): %v", seed, i+j, err)
				}
				if err := gPlain.Ingest(b.now, cloneBatch(b.batch)); err != nil {
					t.Fatalf("seed %d bucket %d (plain): %v", seed, i+j, err)
				}
				if k > 1 && j < k-1 {
					// Mid-bracket: nothing published, but the writer-side
					// clock has advanced to the applied bucket.
					if got := gBatch.front.Load().seq; got != seqBefore {
						t.Fatalf("seed %d bucket %d: published mid-bracket (seq %d → %d)", seed, i+j, seqBefore, got)
					}
					if got := gBatch.WriterNow(); got != b.now {
						t.Fatalf("seed %d bucket %d: WriterNow = %d, want %d", seed, i+j, got, b.now)
					}
				}
			}
			if k > 1 {
				gBatch.EndBatch()
			}
			if got := gBatch.front.Load().seq; got != seqBefore+int64(k) {
				t.Fatalf("seed %d: after bracket of %d, seq = %d, want %d", seed, k, got, seqBefore+int64(k))
			}

			// Published states identical across bracketing choices.
			bSt, pSt := stateOf(gBatch.front.Load().buf), stateOf(gPlain.front.Load().buf)
			if !reflect.DeepEqual(bSt, pSt) {
				t.Fatalf("seed %d bucket %d: bracketed and plain engines diverge", seed, i)
			}
			if i%7 == 0 && !bytes.Equal(gobBytes(t, bSt), gobBytes(t, pSt)) {
				t.Fatalf("seed %d bucket %d: bracketed state not byte-identical to plain", seed, i)
			}

			// The multi-bucket replay queue must bring the recycled buffer
			// to exactly the published front.
			gBatch.mu.Lock()
			if err := gBatch.recycle(); err != nil {
				gBatch.mu.Unlock()
				t.Fatalf("seed %d bucket %d: recycle: %v", seed, i, err)
			}
			back, front := stateOf(gBatch.back), stateOf(gBatch.front.Load().buf)
			if !reflect.DeepEqual(back, front) {
				gBatch.mu.Unlock()
				t.Fatalf("seed %d bucket %d: recycled buffer diverges from front after %d-bucket replay", seed, i, k)
			}
			gBatch.mu.Unlock()
			i += k
		}

		// Identical query answers, bit-exact scores included.
		for _, x := range []topicmodel.TopicVec{
			{Topics: []int32{0}, Probs: []float64{1}},
			{Topics: []int32{2, 7}, Probs: []float64{0.6, 0.4}},
		} {
			for _, alg := range []Algorithm{MTTS, MTTD, TopkRep} {
				rb, err := gBatch.Query(Query{K: 5, X: x, Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				rp, err := gPlain.Query(Query{K: 5, X: x, Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rb, rp) {
					t.Fatalf("seed %d: query diverges under alg %v:\n got %+v\nwant %+v", seed, alg, rb, rp)
				}
			}
		}
	}
}

// An empty bracket publishes nothing and breaks nothing.
func TestBatchBracketEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const z, v, windowT = 6, 40, 30
	g, err := NewEngine(Config{Model: testutil.RandModel(rng, z, v), WindowLength: windowT, Params: paperConfig().Params})
	if err != nil {
		t.Fatal(err)
	}
	g.BeginBatch()
	g.EndBatch()
	if got := g.front.Load().seq; got != 0 {
		t.Fatalf("empty bracket published: seq %d", got)
	}
	b := randomDeltaStream(rng, z, v, 1, windowT)[0]
	if err := g.Ingest(b.now, cloneBatch(b.batch)); err != nil {
		t.Fatal(err)
	}
	if got := g.front.Load().seq; got != 1 {
		t.Fatalf("ingest after an empty bracket: seq %d, want 1", got)
	}
}
