package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
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
		// Fresh element values per engine: engines never share elements.
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
	// Lists that do not match the window: each would leave the restored
	// engine answering otherwise than the exported one.
	for name, spoil := range map[string]func(lists [][]Tuple){
		"inactive list entry": func(l [][]Tuple) { l[0] = append([]Tuple{{ID: 4, Score: 1}}, l[0]...) }, // e4 expired
		// e1 would never surface on topic 1.
		"active element missing from a list": func(l [][]Tuple) { l[1] = l[1][1:] },
		"tuple listed twice":                 func(l [][]Tuple) { l[1] = append(l[1], l[1][0]) },
		"t_e other than the window's":        func(l [][]Tuple) { l[1][0].LastRef++ },
	} {
		bad = st
		bad.Lists = make([][]Tuple, len(st.Lists))
		for i, items := range st.Lists {
			bad.Lists[i] = slices.Clone(items)
		}
		spoil(bad.Lists)
		if _, err := Restore(paperConfig(), bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// An element that does not fit the model fails the restore instead of
	// panicking in the scorer: a topic past Z, a word past the vocabulary,
	// a repeated topic.
	for name, spoil := range map[string]func(e *stream.Element){
		"topic outside the model":      func(e *stream.Element) { e.Topics.Topics[len(e.Topics.Topics)-1] = 99 },
		"word outside the vocabulary":  func(e *stream.Element) { e.Doc.Terms[0].Word = textproc.WordID(paperConfig().Model.V) },
		"repeated topic":               func(e *stream.Element) { e.Topics.Topics = []int32{0, 0}; e.Topics.Probs = []float64{0.5, 0.5} },
		"topics without probabilities": func(e *stream.Element) { e.Topics.Probs = e.Topics.Probs[:0] },
	} {
		for i := range st.Window.Window {
			bad = st
			bad.Window.Window = slices.Clone(st.Window.Window)
			e := *st.Window.Window[i]
			e.Topics.Topics, e.Topics.Probs = slices.Clone(e.Topics.Topics), slices.Clone(e.Topics.Probs)
			e.Doc.Terms = slices.Clone(e.Doc.Terms)
			spoil(&e)
			bad.Window.Window[i] = &e
			if _, err := Restore(paperConfig(), bad); err == nil {
				t.Errorf("%s accepted in window element %d", name, e.ID)
			}
		}
	}
	// So does an archived, inactive one — e4 expired — but only once a
	// referrer resurrects it: the advance fails with ErrArchiveRead before
	// the window changes, and the engine answers as before.
	for name, spoil := range map[string]func(e *stream.Element){
		"archived topic outside the model":     func(e *stream.Element) { e.Topics.Topics[len(e.Topics.Topics)-1] = 99 },
		"archived word outside the vocabulary": func(e *stream.Element) { e.Doc.Terms[0].Word = textproc.WordID(paperConfig().Model.V) },
	} {
		bad = st
		bad.Window.Archive = spoilArchived(t, st.Window.Archive, 4, spoil)
		r, err := Restore(paperConfig(), bad)
		if err != nil {
			t.Fatalf("%s: the restore reads no inactive archived element, yet failed: %v", name, err)
		}
		before := engineQueries(t, r)
		referrer := *papertest.Elements()[7]
		referrer.ID, referrer.TS, referrer.Refs = 100, st.Window.Now+1, []stream.ElemID{4}
		if err := r.Ingest(referrer.TS, []*stream.Element{&referrer}); !errors.Is(err, stream.ErrArchiveRead) {
			t.Errorf("%s: resurrecting it returned %v, want ErrArchiveRead", name, err)
		}
		if err := sameResults(before, engineQueries(t, r)); err != nil {
			t.Errorf("%s: the failed ingest changed the engine: %v", name, err)
		}
	}
	cfg := paperConfig()
	cfg.Model = nil
	if _, err := Restore(cfg, st); err == nil {
		t.Error("nil model accepted")
	}
}

// spoilArchived returns a memory-only copy of a with the archived element
// id changed by spoil.
func spoilArchived(t *testing.T, a stream.Archive, id stream.ElemID, spoil func(*stream.Element)) stream.Archive {
	t.Helper()
	out := stream.Archive{Count: a.Len()}
	found := false
	for i := 0; i < a.Len(); i++ {
		rec, text, err := a.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if es, err := stream.DecodeRecords([][]byte{rec}, []string{text}); err != nil {
			t.Fatal(err)
		} else if es[0].ID == id {
			spoil(es[0])
			rec, found = stream.AppendRecord(nil, es[0]), true
		}
		out.Records = append(out.Records, rec...)
		out.Ends = append(out.Ends, len(out.Records))
		out.Texts = append(out.Texts, text)
	}
	if !found {
		t.Fatalf("element %d is not archived", id)
	}
	return out
}
