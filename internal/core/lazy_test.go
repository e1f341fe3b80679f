package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/stream"
)

// maskTimes zeroes the wall-clock maintenance timers, which measure this
// run's hardware, not the logical state; every other field must match
// exactly between a lazy and an eager restore.
func maskTimes(st State) State {
	st.Stats.UpdateTime = 0
	st.Stats.ReplayTime = 0
	return st
}

// lazyEagerPair restores two engines from the same export: one left with
// its back buffer deferred, one whose back buffer is built right away (its
// build timing discarded, as no write paid for it).
func lazyEagerPair(t *testing.T, st State) (lazy, eager *Engine) {
	t.Helper()
	var err error
	if lazy, err = Restore(paperConfig(), st); err != nil {
		t.Fatal(err)
	}
	if eager, err = Restore(paperConfig(), st); err != nil {
		t.Fatal(err)
	}
	eager.mu.Lock()
	err = eager.buildBack()
	eager.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	eager.TakeMaterialize()
	return lazy, eager
}

// A restore defers the back buffer, and the front buffer alone answers
// queries and exports state exactly like an eagerly restored twin.
func TestLazyRestoreDefersBackBuffer(t *testing.T) {
	g := paperEngine(t)
	lazy, eager := lazyEagerPair(t, g.ExportState())

	if lazy.back != nil {
		t.Fatal("lazy restore materialized the back buffer up front")
	}
	if eager.back == nil {
		t.Fatal("eager twin has no back buffer")
	}
	if err := sameResults(engineQueries(t, lazy), engineQueries(t, eager)); err != nil {
		t.Fatalf("pre-materialization queries diverge: %v", err)
	}
	if !reflect.DeepEqual(maskTimes(lazy.ExportState()), maskTimes(eager.ExportState())) {
		t.Fatal("exports diverge before materialization")
	}
	if start, d := lazy.TakeMaterialize(); !start.IsZero() || d != 0 {
		t.Fatalf("TakeMaterialize returned %v/%v before any write", start, d)
	}
}

// The first write pays for a deferred back buffer itself and parks the
// timing for the pipeline's span seam, then continues exactly as if the
// restore had been eager.
func TestLazyMaterializeOnFirstWrite(t *testing.T) {
	g := paperEngine(t)
	lazy, eager := lazyEagerPair(t, g.ExportState())

	src := papertest.Elements()[0]
	for _, r := range []*Engine{lazy, eager} {
		e := &stream.Element{ID: 30, TS: 9, Doc: src.Doc, Topics: src.Topics}
		if err := r.Ingest(9, []*stream.Element{e}); err != nil {
			t.Fatal(err)
		}
	}
	if lazy.back == nil {
		t.Fatal("first write did not materialize the back buffer")
	}
	start, dur := lazy.TakeMaterialize()
	if start.IsZero() || dur <= 0 {
		t.Fatalf("TakeMaterialize = %v/%v, want the first write's build timing", start, dur)
	}
	if start2, dur2 := lazy.TakeMaterialize(); !start2.IsZero() || dur2 != 0 {
		t.Fatal("TakeMaterialize did not clear the parked timing")
	}
	if start3, dur3 := eager.TakeMaterialize(); !start3.IsZero() || dur3 != 0 {
		t.Fatal("eager twin parked a materialization timing")
	}
	if err := sameResults(engineQueries(t, lazy), engineQueries(t, eager)); err != nil {
		t.Fatalf("queries diverge after first post-restore write: %v", err)
	}
	if !reflect.DeepEqual(maskTimes(lazy.ExportState()), maskTimes(eager.ExportState())) {
		t.Fatal("exports diverge after first post-restore write")
	}
}

// Randomized interleavings of ingest, query and export keep a lazy restore
// in exact lockstep with its eager twin — same elements, same bit-for-bit
// scores, same exported state — before and after the first write builds
// the back buffer.
func TestLazyEagerInterleavedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := paperEngine(t)
		lazy, eager := lazyEagerPair(t, base.ExportState())
		rng := rand.New(rand.NewSource(seed))

		ts := stream.Time(9)
		nextID := stream.ElemID(100)
		for step := 0; step < 60; step++ {
			switch rng.Intn(3) {
			case 0: // ingest the same fresh element into both
				ts += stream.Time(1 + rng.Intn(2))
				id := nextID
				nextID++
				var refs []stream.ElemID
				if id > 100 && rng.Intn(2) == 0 {
					// Reference a random earlier arrival: live targets gain
					// influence, expired ones resurrect — both paths must
					// replay identically.
					refs = []stream.ElemID{100 + stream.ElemID(rng.Intn(int(id-100)))}
				}
				src := papertest.Elements()[rng.Intn(8)]
				for _, r := range []*Engine{lazy, eager} {
					e := &stream.Element{ID: id, TS: ts, Doc: src.Doc, Topics: src.Topics, Refs: refs}
					if err := r.Ingest(ts, []*stream.Element{e}); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
				}
			case 1: // full query battery
				if err := sameResults(engineQueries(t, lazy), engineQueries(t, eager)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			case 2: // exported state (what a checkpoint would persist)
				if !reflect.DeepEqual(maskTimes(lazy.ExportState()), maskTimes(eager.ExportState())) {
					t.Fatalf("seed %d step %d: exports diverge", seed, step)
				}
			}
		}
		lazy.TakeMaterialize()
		if err := sameResults(engineQueries(t, lazy), engineQueries(t, eager)); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
		if !reflect.DeepEqual(maskTimes(lazy.ExportState()), maskTimes(eager.ExportState())) {
			t.Fatalf("seed %d final: exports diverge", seed)
		}
	}
}
