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
// its back buffer deferred, one whose back buffer is built right away.
func lazyEagerPair(t *testing.T, st State) (lazy, eager *Engine) {
	t.Helper()
	var err error
	if lazy, err = Restore(paperConfig(), st); err != nil {
		t.Fatal(err)
	}
	if eager, err = Restore(paperConfig(), st); err != nil {
		t.Fatal(err)
	}
	if did, _, err := eager.MaterializeBack(); err != nil || !did {
		t.Fatalf("MaterializeBack on a fresh restore did=%v err=%v", did, err)
	}
	return lazy, eager
}

// A restore defers the back buffer; an explicit MaterializeBack
// builds it exactly once, off the write path, after which both engines
// export byte-identical state.
func TestLazyRestoreDefersBackBuffer(t *testing.T) {
	g := paperEngine(t)
	lazy, eager := lazyEagerPair(t, g.ExportState())

	if lazy.BackMaterialized() {
		t.Fatal("lazy restore materialized the back buffer up front")
	}
	if !eager.BackMaterialized() {
		t.Fatal("eager twin has no back buffer")
	}
	// The front buffer alone answers queries identically.
	if err := sameResults(engineQueries(t, lazy), engineQueries(t, eager)); err != nil {
		t.Fatalf("pre-materialization queries diverge: %v", err)
	}

	did, dur, err := lazy.MaterializeBack()
	if err != nil {
		t.Fatal(err)
	}
	if !did || dur <= 0 {
		t.Fatalf("MaterializeBack did=%v dur=%v, want a measured build", did, dur)
	}
	if !lazy.BackMaterialized() {
		t.Fatal("back buffer still missing after MaterializeBack")
	}
	if did, _, err := lazy.MaterializeBack(); err != nil || did {
		t.Fatalf("second MaterializeBack did=%v err=%v, want idempotent no-op", did, err)
	}
	// An explicit (off-write-path) build must not be reported to the
	// ingest-path timing seam.
	if start, d := lazy.TakeMaterialize(); !start.IsZero() || d != 0 {
		t.Fatalf("TakeMaterialize returned %v/%v after an explicit build", start, d)
	}
	if !reflect.DeepEqual(maskTimes(lazy.ExportState()), maskTimes(eager.ExportState())) {
		t.Fatal("exports diverge after explicit materialization")
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
	if !lazy.BackMaterialized() {
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

// Randomized interleavings of ingest, query, export and explicit
// materialization keep a lazy restore in exact lockstep with its eager
// twin — same elements, same bit-for-bit scores, same exported state —
// regardless of when (or whether) the back buffer gets built explicitly.
func TestLazyEagerInterleavedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := paperEngine(t)
		lazy, eager := lazyEagerPair(t, base.ExportState())
		rng := rand.New(rand.NewSource(seed))

		ts := stream.Time(9)
		nextID := stream.ElemID(100)
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
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
			case 1: // explicit materialization at an arbitrary point
				if _, _, err := lazy.MaterializeBack(); err != nil {
					t.Fatalf("seed %d step %d: MaterializeBack: %v", seed, step, err)
				}
			case 2: // full query battery
				if err := sameResults(engineQueries(t, lazy), engineQueries(t, eager)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			case 3: // exported state (what a checkpoint would persist)
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
