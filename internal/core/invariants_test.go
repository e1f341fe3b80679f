package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// checkLists verifies Algorithm 1's ranked-list invariants on one version
// of the lists by brute force against the engine's window and scorer. touched
// holds the IDs the last bucket inserted or referenced: their tuples must
// carry the current score exactly; every other tuple may be stale, but
// only upwards.
func checkLists(win *stream.ActiveWindow, scorer *score.Scorer, lists [][]rankedlist.Item, touched map[stream.ElemID]bool) error {
	for i, items := range lists {
		topic := int32(i)
		got := make(map[stream.ElemID]bool, len(items))
		for j, it := range items {
			if got[it.ID] {
				return fmt.Errorf("RL_%d holds element %d twice", i, it.ID)
			}
			got[it.ID] = true
			e, active := win.Get(it.ID)
			if !active {
				return fmt.Errorf("RL_%d holds inactive element %d", i, it.ID)
			}
			if e.Topics.Prob(topic) <= 0 {
				return fmt.Errorf("RL_%d holds element %d with p_%d = 0", i, it.ID, i)
			}
			if j > 0 {
				if p := items[j-1]; !(p.Score > it.Score || (p.Score == it.Score && p.ID < it.ID)) {
					return fmt.Errorf("RL_%d out of order at %d: ⟨%d, %v⟩ before ⟨%d, %v⟩", i, j, p.ID, p.Score, it.ID, it.Score)
				}
			}
			// Influence lost to window exit is never rescored, so a tuple
			// may overestimate; float sums of non-negative terms in fixed
			// child order are monotone under term removal, so ≥ is exact.
			cur := scorer.TopicScore(e, topic)
			if it.Score < cur {
				return fmt.Errorf("RL_%d underestimates element %d: tuple %v < δ %v", i, it.ID, it.Score, cur)
			}
			if touched[it.ID] && it.Score != cur {
				return fmt.Errorf("RL_%d is stale for element %d touched this bucket: tuple %v, δ %v", i, it.ID, it.Score, cur)
			}
		}
		var missing error
		win.ForEachActive(func(e *stream.Element) {
			if e.Topics.Prob(topic) > 0 && !got[e.ID] {
				missing = fmt.Errorf("RL_%d misses active element %d with p_%d = %v", i, e.ID, i, e.Topics.Prob(topic))
			}
		})
		if missing != nil {
			return missing
		}
	}
	return nil
}

// listInvariants runs buckets through a fresh engine and returns the first
// invariant violation, checked after every bucket in the published
// version.
func listInvariants(model *topicmodel.Model, windowT stream.Time, buckets []scriptBucket) error {
	g, err := NewEngine(Config{Model: model, WindowLength: windowT, Params: paperConfig().Params})
	if err != nil {
		return err
	}
	for b, bucket := range buckets {
		if err := g.Ingest(bucket.now, cloneBatch(bucket.batch)); err != nil {
			return fmt.Errorf("bucket %d: %w", b, err)
		}
		touched := make(map[stream.ElemID]bool)
		for _, e := range bucket.batch {
			touched[e.ID] = true
			for _, ref := range e.Refs {
				touched[ref] = true
			}
		}
		g.mu.Lock()
		err := checkLists(g.win, g.scorer, listsAt(g, g.front.Load().seq), touched)
		g.mu.Unlock()
		if err != nil {
			return fmt.Errorf("bucket %d: %w", b, err)
		}
	}
	return nil
}

// TestRankedListInvariants checks Algorithm 1 as a property over seeded
// random arrive / reference / expire / resurrect / mass-expiry sequences
// (dangling and duplicate references included): every RL_i holds exactly
// the active elements with p_i(e) > 0, in strictly ranked order, each at a
// score that is never below its current δ_i(e) and equal to it if the last
// bucket inserted or referenced the element. A failure reports the seed
// and the shortest prefix of the sequence that still fails.
func TestRankedListInvariants(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	const z, v, windowT = 10, 80, 40
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		model := testutil.RandModel(rng, z, v)
		buckets := randomStream(rng, z, v, 80, windowT)
		if listInvariants(model, windowT, buckets) == nil {
			continue
		}
		for n := 1; n <= len(buckets); n++ {
			if err := listInvariants(model, windowT, buckets[:n]); err != nil {
				var dump strings.Builder
				for _, b := range buckets[:n] {
					fmt.Fprintf(&dump, "\n  now=%d:", b.now)
					for _, e := range b.batch {
						fmt.Fprintf(&dump, " %d@%d%v", e.ID, e.TS, e.Refs)
					}
				}
				t.Fatalf("seed %d: shortest failing prefix is %d of %d buckets: %v%s", 1000+seed, n, len(buckets), err, dump.String())
			}
		}
		t.Fatalf("seed %d: failure did not reproduce on any prefix", 1000+seed)
	}
}
