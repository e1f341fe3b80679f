package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// scriptBucket is one generated bucket of a randomized sequence.
type scriptBucket struct {
	now   stream.Time
	batch []*stream.Element
}

// randomStream generates a bucket sequence exercising every
// maintenance path: inserts, parent rescoring, expiry, resurrection of
// expired parents, dangling references, duplicate refs, empty buckets and
// window-jumping gaps (elements arriving already expired).
func randomStream(rng *rand.Rand, z, v, buckets int, windowT stream.Time) []scriptBucket {
	var out []scriptBucket
	now := stream.Time(0)
	nextID := 1
	for b := 0; b < buckets; b++ {
		var step stream.Time
		switch rng.Intn(10) {
		case 0:
			step = windowT + stream.Time(rng.Intn(20)+1) // mass expiry
		default:
			step = stream.Time(rng.Intn(8) + 1)
		}
		prev := now
		now += step
		n := rng.Intn(7) // sometimes 0: an empty bucket
		batch := make([]*stream.Element, 0, n)
		for i := 0; i < n; i++ {
			e := testutil.RandElement(rng, nextID, z, v, 0)
			e.TS = prev + 1 + stream.Time(rng.Int63n(int64(now-prev)))
			for r := 0; r < rng.Intn(3) && nextID > 1; r++ {
				e.Refs = append(e.Refs, stream.ElemID(1+rng.Intn(nextID-1)))
			}
			if rng.Intn(10) == 0 {
				e.Refs = append(e.Refs, stream.ElemID(nextID+1000)) // dangling
			}
			if len(e.Refs) > 1 && rng.Intn(5) == 0 {
				e.Refs = append(e.Refs, e.Refs[0]) // duplicate ref
			}
			nextID++
			batch = append(batch, e)
		}
		// Timestamp-ordered, like stream.Partition produces.
		for i := 1; i < len(batch); i++ {
			for j := i; j > 0 && batch[j].TS < batch[j-1].TS; j-- {
				batch[j], batch[j-1] = batch[j-1], batch[j]
			}
		}
		out = append(out, scriptBucket{now: now, batch: batch})
	}
	return out
}

// cloneBatch gives each engine its own *Element values.
func cloneBatch(batch []*stream.Element) []*stream.Element {
	out := make([]*stream.Element, len(batch))
	for i, e := range batch {
		c := *e
		c.Refs = append([]stream.ElemID(nil), e.Refs...)
		out[i] = &c
	}
	return out
}

// listItems dumps the version of lists their table is writing.
func listItems(lists []*rankedlist.List) [][]rankedlist.Item {
	out := make([][]rankedlist.Item, len(lists))
	for i, l := range lists {
		out[i] = l.Items()
	}
	return out
}

// listsAt dumps version seq of the engine's lists.
func listsAt(g *Engine, seq int64) [][]rankedlist.Item {
	out := make([][]rankedlist.Item, len(g.lists))
	for i, l := range g.lists {
		out[i] = l.ItemsAt(seq, 0)
	}
	return out
}

// gobBytes serializes a state so "byte-identical" is literal.
func gobBytes(t *testing.T, st any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reference is the version suite's yardstick: Algorithm 1 applied to one
// plain window, scorer and set of ID-driven lists, composed from their
// primitives — no versions, no snapshots, nothing read while written.
type reference struct {
	win        *stream.ActiveWindow
	scorer     *score.Scorer
	lists      []*rankedlist.List
	ups, dels  int64
	elems, seq int64
}

func newReference(t *testing.T, cfg Config) *reference {
	t.Helper()
	win := stream.NewActiveWindow(cfg.WindowLength)
	scorer, err := score.NewScorer(cfg.Model, win, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	lists := make([]*rankedlist.List, cfg.Model.Z)
	for i := range lists {
		lists[i] = rankedlist.New()
	}
	return &reference{win: win, scorer: scorer, lists: lists}
}

func (r *reference) ingest(now stream.Time, batch []*stream.Element) error {
	cs, err := r.win.Advance(now, batch)
	if err != nil {
		return err
	}
	r.scorer.OnChange(cs)
	gone := make(map[stream.ElemID]bool, len(cs.Expired))
	for _, e := range cs.Expired {
		gone[e.ID] = true
		for _, topic := range e.Topics.Topics {
			if r.lists[topic].Delete(e.ID) {
				r.dels++
			}
		}
	}
	for _, e := range append(append([]*stream.Element(nil), cs.Inserted...), cs.Updated...) {
		if gone[e.ID] {
			continue // entered already out of window
		}
		for _, topic := range e.Topics.Topics {
			r.lists[topic].Upsert(e.ID, r.scorer.TopicScore(e, topic), 0)
			r.ups++
		}
	}
	r.elems += int64(len(batch))
	r.seq++
	return nil
}

// state is the reference's state as an engine state at its sequence, each
// tuple with its element's t_e from the window.
func (r *reference) state() State {
	lists := make([][]Tuple, len(r.lists))
	for i, l := range r.lists {
		for _, it := range l.Items() {
			te, _ := r.win.LastRef(it.ID)
			lists[i] = append(lists[i], Tuple{ID: it.ID, Score: it.Score, LastRef: te})
		}
	}
	return State{Window: r.win.Export(), Lists: lists,
		Stats: Stats{ElementsIngested: r.elems, Buckets: r.seq, ListUpserts: r.ups, ListDeletes: r.dels}}
}

// versionQueries are the queries a pinned reader runs: every algorithm on
// two query vectors of the version suite's 10-topic models.
func versionQueries() []Query {
	var out []Query
	for _, alg := range []Algorithm{MTTS, MTTD, TopkRep} {
		for _, x := range []topicmodel.TopicVec{
			{Topics: []int32{0, 3}, Probs: []float64{0.5, 0.5}},
			{Topics: []int32{1, 2, 7}, Probs: []float64{0.2, 0.3, 0.5}},
		} {
			out = append(out, Query{K: 4, X: x, Algorithm: alg})
		}
	}
	return out
}

// slotWant is what a reader of one engine version must find in one slot:
// the reference's element, its children in order, and δ(e, x) for x one
// topic of e at a time (the σ cache entry and the influence, bit for bit).
type slotWant struct {
	slot     stream.Slot
	elem     *stream.Element
	children []stream.ElemID
	scores   []float64
}

// versionWant is the reference's state at one engine version, as a reader
// of that version must read it: elements by slot, list tuples, query
// answers (from an engine restored from the reference's state) and the
// explanation of the first answer.
type versionWant struct {
	seq     int64
	slots   []slotWant
	lists   [][]rankedlist.Item
	answers []Result
	explain []score.Contribution
}

func oneHot(topic int32) topicmodel.TopicVec {
	return topicmodel.TopicVec{Topics: []int32{topic}, Probs: []float64{1}}
}

func childIDs(cs []*stream.Element) []stream.ElemID {
	ids := make([]stream.ElemID, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}

// wantOf builds what a reader of g's published version must read, from
// the reference at the same bucket. It takes g's writer lock for the
// slots of the reference's active elements.
func wantOf(t *testing.T, cfg Config, g *Engine, ref *reference) (*versionWant, error) {
	t.Helper()
	w := &versionWant{seq: ref.seq, lists: listItems(ref.lists)}
	g.mu.Lock()
	for _, id := range ref.win.ActiveIDs() {
		s, ok := g.win.SlotOf(id)
		if !ok {
			g.mu.Unlock()
			return nil, fmt.Errorf("element %d is active in the reference, not in the engine", id)
		}
		e, _ := ref.win.Get(id)
		sw := slotWant{slot: s, elem: e, children: childIDs(ref.win.ChildrenView(id))}
		for _, topic := range e.Topics.Topics {
			sw.scores = append(sw.scores, ref.scorer.Score(e, oneHot(topic)))
		}
		w.slots = append(w.slots, sw)
	}
	g.mu.Unlock()
	r, err := Restore(cfg, ref.state())
	if err != nil {
		return nil, err
	}
	for _, q := range versionQueries() {
		res, err := r.Query(q)
		if err != nil {
			return nil, err
		}
		w.answers = append(w.answers, res)
	}
	set := make([]*stream.Element, len(w.answers[0].Elements))
	for i, e := range w.answers[0].Elements {
		set[i], _ = ref.win.Get(e.ID)
	}
	w.explain = ref.scorer.Explain(set, versionQueries()[0].X)
	return w, nil
}

// querySnapshot answers q against a pinned snapshot, as QueryContext does
// against the published one.
func querySnapshot(snap *snapshot, q Query) (Result, error) {
	if err := q.validate(); err != nil {
		return Result{}, err
	}
	a := getArena()
	defer putArena(a)
	v := snap.view()
	switch q.Algorithm {
	case MTTD:
		return v.mttd(context.Background(), q, a)
	case TopkRep:
		return v.topkRep(context.Background(), q, a)
	default:
		return v.mtts(context.Background(), q, a)
	}
}

// readVersion reads everything want names through the pinned snapshot
// alone — slot tables, scorer view, list version — and runs the queries.
func readVersion(snap *snapshot, want *versionWant) error {
	if snap.seq != want.seq {
		return fmt.Errorf("pinned bucket %d, reference at %d", snap.seq, want.seq)
	}
	win := snap.sc.Window()
	for _, sw := range want.slots {
		e := win.At(sw.slot)
		if e == nil || !reflect.DeepEqual(*e, *sw.elem) {
			return fmt.Errorf("slot %d reads %v, want element %d", sw.slot, e, sw.elem.ID)
		}
		if got := childIDs(win.ChildrenAt(sw.slot)); !reflect.DeepEqual(got, sw.children) {
			return fmt.Errorf("slot %d (element %d) reads children %v, want %v", sw.slot, e.ID, got, sw.children)
		}
		for j, topic := range e.Topics.Topics {
			if got := snap.sc.ScoreAt(e, sw.slot, oneHot(topic)); math.Float64bits(got) != math.Float64bits(sw.scores[j]) {
				return fmt.Errorf("slot %d (element %d) scores %v on topic %d, want %v", sw.slot, e.ID, got, topic, sw.scores[j])
			}
		}
	}
	for i, l := range snap.lists {
		got := l.ItemsAt(snap.seq, snap.lens[i])
		if len(got) != len(want.lists[i]) || len(got) > 0 && !reflect.DeepEqual(got, want.lists[i]) {
			return fmt.Errorf("RL_%d reads %v, want %v", i, got, want.lists[i])
		}
	}
	var answers []Result
	for _, q := range versionQueries() {
		res, err := querySnapshot(snap, q)
		if err != nil {
			return err
		}
		answers = append(answers, res)
	}
	return sameResults(answers, want.answers)
}

// explained is one Explain a reader ran through ReadSnapshot: the bucket
// it saw and the breakdown of that bucket's first answer.
type explained struct {
	bucket   int64
	ids      []stream.ElemID
	contribs []score.Contribution
}

// explainNow explains g's first version query at whatever bucket the
// writer lock finds.
func explainNow(g *Engine) (explained, error) {
	var out explained
	var err error
	q := versionQueries()[0]
	g.ReadSnapshot(func(bucket int64, win *stream.ActiveWindow, scorer *score.Scorer) {
		var res Result
		if res, err = g.Query(q); err != nil {
			return
		}
		if res.BucketSeq != bucket {
			err = fmt.Errorf("a query under the writer lock saw bucket %d, the lock %d", res.BucketSeq, bucket)
			return
		}
		set := make([]*stream.Element, len(res.Elements))
		for i, e := range res.Elements {
			var ok bool
			if set[i], ok = win.Get(e.ID); !ok {
				err = fmt.Errorf("answer element %d is not active at bucket %d", e.ID, bucket)
				return
			}
		}
		out = explained{bucket: bucket, ids: res.IDs(), contribs: scorer.Explain(set, q.X)}
	})
	return out, err
}

// sameExplain compares an explanation with the reference's at its bucket.
func sameExplain(got explained, want *versionWant) error {
	if ids := want.answers[0].IDs(); !reflect.DeepEqual(got.ids, ids) {
		return fmt.Errorf("explained answer %v at bucket %d, the reference answers %v", got.ids, got.bucket, ids)
	}
	for i, c := range got.contribs {
		w := want.explain[i]
		if c.Elem.ID != w.Elem.ID || c.Gain != w.Gain || c.Semantic != w.Semantic || c.Influence != w.Influence ||
			c.NewWords != w.NewWords || !reflect.DeepEqual(c.TopicGains, w.TopicGains) {
			return fmt.Errorf("explanation %d at bucket %d: %+v, want %+v", i, got.bucket, c, w)
		}
	}
	return nil
}

// checkPublished compares g's published state with the reference under the
// writer lock: the window export, the published list version and the
// counters; the gob pass, costly, makes "byte-identical" literal.
func checkPublished(t *testing.T, g *Engine, ref *reference, gobPass bool) error {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := g.front.Load()
	got, want := g.win.Export(), ref.win.Export()
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("published window diverges from the reference")
	}
	if !reflect.DeepEqual(listsAt(g, snap.seq), listItems(ref.lists)) {
		return fmt.Errorf("published lists diverge from the reference")
	}
	if gobPass && !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
		return fmt.Errorf("published window and reference not byte-identical")
	}
	if st := snap.stats; st.Buckets != ref.seq || st.ElementsIngested != ref.elems ||
		st.ListUpserts != ref.ups || st.ListDeletes != ref.dels {
		return fmt.Errorf("counters diverge: %+v vs reference %+v", st, *ref)
	}
	return nil
}

// TestVersionsMatchSingleBufferReference is the correctness bar of the one
// engine state (DESIGN.md §6): a reader pinned at version v reads exactly
// the single-buffer reference's state at bucket v — every active element
// by its slot, its children in order, its σ-cache-backed scores bit for
// bit, every list tuple, and the MTTS, MTTD and TopkRep answers of an
// engine freshly restored from that state — while the writer builds v+1
// beside it, and still after v+1 is published. Each bucket one reader
// pins v and checks it concurrently with the Ingest of v+1 (-race covers
// the write path against the read path), then again once it returned;
// another explains through ReadSnapshot, which waits for the writer and
// must match the reference at whichever bucket it saw; two more query
// freely. The script reuses slots of elements that had children for
// elements that have none: the old element's children must not show.
// Halfway through, an engine restored from the original's export joins,
// checked before its first Ingest, then every bucket.
func TestVersionsMatchSingleBufferReference(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	childless := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const z, v, windowT = 10, 80, 40
		cfg := Config{Model: testutil.RandModel(rng, z, v), WindowLength: windowT, Params: paperConfig().Params}
		g, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newReference(t, cfg)
		var engines atomic.Pointer[[]*Engine]
		engines.Store(&[]*Engine{g})
		wants := map[*Engine]map[int64]*versionWant{}
		// occupant and hadKids follow each engine's slots: who held a slot
		// last and whether it ever had children there.
		type slotHistory struct {
			occupant stream.ElemID
			hadKids  bool
		}
		histories := map[*Engine]map[stream.Slot]slotHistory{}
		track := func(g *Engine) error {
			w, err := wantOf(t, cfg, g, ref)
			if err != nil {
				return err
			}
			if wants[g] == nil {
				wants[g], histories[g] = map[int64]*versionWant{}, map[stream.Slot]slotHistory{}
			}
			wants[g][w.seq] = w
			h := histories[g]
			for _, sw := range w.slots {
				old, ok := h[sw.slot]
				if ok && old.occupant != sw.elem.ID && old.hadKids && len(sw.children) == 0 {
					childless++
				}
				if !ok || old.occupant != sw.elem.ID {
					old = slotHistory{occupant: sw.elem.ID}
				}
				old.hadKids = old.hadKids || len(sw.children) > 0
				h[sw.slot] = old
			}
			return nil
		}
		if err := track(g); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x := topicmodel.TopicVec{Topics: []int32{int32(w), int32(w + 3)}, Probs: []float64{0.5, 0.5}}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, e := range *engines.Load() {
						if _, err := e.Query(Query{K: 4, X: x, Algorithm: Algorithm(w)}); err != nil {
							t.Error(err)
							return
						}
					}
					// Pace the reader so a single-core host still gets the
					// writer scheduled (the race coverage needs overlap,
					// not saturation).
					time.Sleep(200 * time.Microsecond)
				}
			}(w)
		}

		var explains []explained
		buckets := randomStream(rng, z, v, 60, windowT)
		for b, bucket := range buckets {
			if b == len(buckets)/2 {
				r, err := Restore(cfg, g.ExportState())
				if err != nil {
					t.Fatalf("seed %d bucket %d: restore: %v", seed, b, err)
				}
				if err := checkPublished(t, r, ref, true); err != nil {
					t.Fatalf("seed %d bucket %d: restored engine before its first Ingest: %v", seed, b, err)
				}
				if err := track(r); err != nil {
					t.Fatalf("seed %d bucket %d: restored engine: %v", seed, b, err)
				}
				engines.Store(&[]*Engine{g, r})
			}
			for i, e := range *engines.Load() {
				snap := e.acquire()
				want := wants[e][snap.seq]
				during := make(chan error, 1)
				go func() { during <- readVersion(snap, want) }()
				explainDone := make(chan struct{})
				go func() {
					defer close(explainDone)
					ex, err := explainNow(e)
					if err != nil {
						t.Error(err)
					}
					explains = append(explains, ex)
				}()
				if err := e.Ingest(bucket.now, cloneBatch(bucket.batch)); err != nil {
					t.Fatalf("seed %d bucket %d: %v", seed, b, err)
				}
				err := <-during
				if err == nil {
					err = readVersion(snap, want)
				}
				snap.release()
				<-explainDone
				if err != nil {
					t.Fatalf("seed %d bucket %d engine %d: a reader pinned at %d while the writer built the next: %v", seed, b, i, want.seq, err)
				}
			}
			if err := ref.ingest(bucket.now, cloneBatch(bucket.batch)); err != nil {
				t.Fatalf("seed %d bucket %d (reference): %v", seed, b, err)
			}
			for i, e := range *engines.Load() {
				if err := checkPublished(t, e, ref, b%7 == 6); err != nil {
					t.Fatalf("seed %d bucket %d engine %d: %v", seed, b, i, err)
				}
				if err := track(e); err != nil {
					t.Fatalf("seed %d bucket %d engine %d: %v", seed, b, i, err)
				}
			}
			// The explanations ran at the version before this bucket or at
			// this one: both are known now.
			for j, ex := range explains {
				e := (*engines.Load())[min(j, len(*engines.Load())-1)]
				if err := sameExplain(ex, wants[e][ex.bucket]); err != nil {
					t.Fatalf("seed %d bucket %d: %v", seed, b, err)
				}
			}
			explains = explains[:0]
		}
		close(stop)
		wg.Wait()
	}
	if childless == 0 {
		t.Fatal("no slot of an element with children was refilled by one without; the script must do it")
	}
}
