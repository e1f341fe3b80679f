package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

func paperConfig() Config {
	return Config{
		Model:        papertest.Model(),
		WindowLength: 4,
		Params:       score.Params{Lambda: 0.5, Eta: 2},
	}
}

func restoreOf(t *testing.T, g *Engine, cfg Config) *Engine {
	t.Helper()
	r, err := Restore(cfg, g.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func engineQueries(t *testing.T, g *Engine) []Result {
	t.Helper()
	var out []Result
	for _, alg := range []Algorithm{MTTD, MTTS, TopkRep} {
		for _, x := range []topicmodel.TopicVec{
			{Topics: []int32{0}, Probs: []float64{1}},
			{Topics: []int32{1}, Probs: []float64{1}},
			{Topics: []int32{0, 1}, Probs: []float64{0.5, 0.5}},
		} {
			res, err := g.Query(Query{K: 3, X: x, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
	}
	return out
}

// sameResults compares two query batches for exact equality: selected
// elements, active count, bucket sequence, the Evaluated/Retrieved
// pruning counters, and the floating-point Score bit for bit. Scoring is
// fully deterministic — influence sums iterate the reference index in
// sorted child order and the set functions sum their coverage maps in
// sorted key order — so a restored engine has no ulp of slack to hide in.
func sameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("result counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ActiveAtQuery != y.ActiveAtQuery || x.BucketSeq != y.BucketSeq ||
			x.Evaluated != y.Evaluated || x.Retrieved != y.Retrieved {
			return fmt.Errorf("query %d counters diverge: %+v vs %+v", i, x, y)
		}
		if x.Score != y.Score {
			return fmt.Errorf("query %d scores diverge: %v vs %v", i, x.Score, y.Score)
		}
		if len(x.Elements) != len(y.Elements) {
			return fmt.Errorf("query %d sizes diverge", i)
		}
		for j := range x.Elements {
			if !reflect.DeepEqual(*x.Elements[j], *y.Elements[j]) {
				return fmt.Errorf("query %d element %d diverges: %+v vs %+v", i, j, x.Elements[j], y.Elements[j])
			}
		}
	}
	return nil
}

// A restored engine answers every query byte-identically — same elements,
// same scores, same pruning counters, same bucket sequence — and its
// ranked lists match tuple for tuple, stale scores included.
func TestRestoreIsByteIdentical(t *testing.T) {
	g := paperEngine(t)
	cfg := paperConfig()
	r := restoreOf(t, g, cfg)

	if g.Now() != r.Now() || g.NumActive() != r.NumActive() {
		t.Fatalf("now/active diverge: %d/%d vs %d/%d", g.Now(), g.NumActive(), r.Now(), r.NumActive())
	}
	if g.Stats() != r.Stats() {
		t.Errorf("stats diverge:\n got %+v\nwant %+v", r.Stats(), g.Stats())
	}
	for topic := 0; topic < cfg.Model.Z; topic++ {
		a, b := g.ListItems(topic), r.ListItems(topic)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("RL%d diverges:\n got %+v\nwant %+v", topic+1, b, a)
		}
	}
	if err := sameResults(engineQueries(t, g), engineQueries(t, r)); err != nil {
		t.Errorf("query results diverge after restore: %v", err)
	}
}

// After restore, identical further ingests keep the two engines in
// lockstep: expiries, resurrections and bucket sequences all replay.
func TestRestoreContinuesDeterministically(t *testing.T) {
	g := paperEngine(t)
	cfg := paperConfig()
	r := restoreOf(t, g, cfg)

	mk := func(id stream.ElemID, ts stream.Time, refs ...stream.ElemID) func() *stream.Element {
		// Fresh element values per engine: buffers share elements within
		// one engine, never across engines.
		return func() *stream.Element {
			src := papertest.Elements()[int(id-1)%8]
			return &stream.Element{ID: id, TS: ts, Doc: src.Doc, Topics: src.Topics, Refs: refs}
		}
	}
	steps := []func() *stream.Element{
		mk(20, 9, 3),  // references a live element
		mk(21, 10, 4), // resurrects e4 (expired before the export)
		mk(22, 13),    // plain arrival after a gap (mass expiry)
	}
	for _, step := range steps {
		ea, eb := step(), step()
		if err := g.Ingest(ea.TS, []*stream.Element{ea}); err != nil {
			t.Fatal(err)
		}
		if err := r.Ingest(eb.TS, []*stream.Element{eb}); err != nil {
			t.Fatal(err)
		}
		if err := sameResults(engineQueries(t, g), engineQueries(t, r)); err != nil {
			t.Fatalf("results diverge after ingesting e%d: %v", ea.ID, err)
		}
		for topic := 0; topic < cfg.Model.Z; topic++ {
			if !reflect.DeepEqual(g.ListItems(topic), r.ListItems(topic)) {
				t.Fatalf("RL%d diverges after ingesting e%d", topic+1, ea.ID)
			}
		}
		if gs, rs := g.Stats(), r.Stats(); gs.Buckets != rs.Buckets || gs.ElementsIngested != rs.ElementsIngested ||
			gs.ListUpserts != rs.ListUpserts || gs.ListDeletes != rs.ListDeletes {
			t.Fatalf("stats diverge after e%d:\n got %+v\nwant %+v", ea.ID, rs, gs)
		}
	}
	// Duplicate detection survives the restore: every historical ID is
	// still known.
	dup := mk(3, 14)()
	if err := r.Ingest(14, []*stream.Element{dup}); err == nil {
		t.Error("restored engine accepted a duplicate of an expired element")
	}
}

// Restore reproduces the exported engine's answers and rejects states
// that do not fit the model.
func TestRestoreValidation(t *testing.T) {
	g := paperEngine(t)
	st := g.ExportState()

	r, err := Restore(paperConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(engineQueries(t, g), engineQueries(t, r)); err != nil {
		t.Errorf("results diverge: %v", err)
	}

	bad := st
	bad.Lists = st.Lists[:1]
	if _, err := Restore(paperConfig(), bad); err == nil {
		t.Error("wrong list count accepted")
	}
	bad = st
	bad.Lists = make([][]rankedlist.Item, len(st.Lists))
	copy(bad.Lists, st.Lists)
	bad.Lists[0] = append([]rankedlist.Item{{ID: 4, Score: 1}}, st.Lists[0]...) // e4 expired
	if _, err := Restore(paperConfig(), bad); err == nil {
		t.Error("inactive list entry accepted")
	}
	cfg := paperConfig()
	cfg.Model = nil
	if _, err := Restore(cfg, st); err == nil {
		t.Error("nil model accepted")
	}
}
