package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
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

// deltaBucket is one generated bucket of a randomized sequence.
type deltaBucket struct {
	now   stream.Time
	batch []*stream.Element
}

// randomDeltaStream generates a bucket sequence exercising every
// maintenance path: inserts, parent rescoring, expiry, resurrection of
// expired parents, dangling references, duplicate refs, empty buckets and
// window-jumping gaps (elements arriving already expired).
func randomDeltaStream(rng *rand.Rand, z, v, buckets int, windowT stream.Time) []deltaBucket {
	var out []deltaBucket
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
		out = append(out, deltaBucket{now: now, batch: batch})
	}
	return out
}

// cloneBatch gives each engine its own *Element values (buffers share
// elements within one engine, never across engines).
func cloneBatch(batch []*stream.Element) []*stream.Element {
	out := make([]*stream.Element, len(batch))
	for i, e := range batch {
		c := *e
		c.Refs = append([]stream.ElemID(nil), e.Refs...)
		out[i] = &c
	}
	return out
}

// bufferState dumps one buffer at the exported-tuple level: the full
// window export plus every ranked list's tuples in ranked order.
type bufferState struct {
	Window stream.WindowState
	Lists  [][]rankedlist.Item
}

func stateOf(win *stream.ActiveWindow, lists [][]rankedlist.Item) bufferState {
	return bufferState{Window: win.Export(), Lists: lists}
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

// gobBytes serializes a buffer state so "byte-identical" is literal.
func gobBytes(t *testing.T, st bufferState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// singleBuffer is the delta suite's reference: Algorithm 1 applied once to
// one buffer, composed from the window, scorer and list primitives — no
// recording, no replay, no versions, no second copy.
type singleBuffer struct {
	buf        *buffer
	lists      []*rankedlist.List
	prev       [][]rankedlist.Item // the lists' tuples before the last bucket
	ups, dels  int64
	elems, seq int64
}

func newSingleBuffer(t *testing.T, cfg Config) *singleBuffer {
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
	return &singleBuffer{buf: &buffer{win: win, scorer: scorer}, lists: lists}
}

func (r *singleBuffer) ingest(now stream.Time, batch []*stream.Element) error {
	cs, err := r.buf.win.Advance(now, batch)
	if err != nil {
		return err
	}
	r.buf.scorer.OnChange(cs)
	r.prev = listItems(r.lists)
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
		te, _ := r.buf.win.LastRef(e.ID)
		for _, topic := range e.Topics.Topics {
			r.lists[topic].Upsert(e.ID, r.buf.scorer.TopicScore(e, topic), te)
			r.ups++
		}
	}
	r.elems += int64(len(batch))
	r.seq++
	return nil
}

// checkLockstep forces the catch-up that would otherwise run at g's next
// Ingest, then, holding the writer lock, compares the recycled buffer
// against the published front, and the front against the reference. The
// lists exist once, so their check is per version: before the catch-up
// the version before the published one — which a reader pinned there
// still walks — must equal the reference's previous bucket (when prev is
// set: a restored engine has no earlier version), and the published
// version must read the same before and after the catch-up's sweep and
// equal the version the writer writes next. The gob pass makes
// "byte-identical" literal; it is costly, so the caller samples it.
func checkLockstep(t *testing.T, g *Engine, ref *singleBuffer, prev, gobPass bool) error {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := g.front.Load().seq
	if prev && !reflect.DeepEqual(listsAt(g, seq-1), ref.prev) {
		return fmt.Errorf("version %d changed while the writer built %d", seq-1, seq)
	}
	published := listsAt(g, seq)
	g.recycle()
	if !reflect.DeepEqual(listsAt(g, seq), published) {
		return fmt.Errorf("the sweep changed published version %d", seq)
	}
	frontBuf := g.front.Load().buf
	back, front, want := stateOf(g.back.win, listItems(g.lists)), stateOf(frontBuf.win, published), stateOf(ref.buf.win, listItems(ref.lists))
	if !reflect.DeepEqual(back, front) {
		return fmt.Errorf("recycled buffer or the lists' next version diverges from front")
	}
	if !reflect.DeepEqual(front, want) {
		return fmt.Errorf("published front diverges from the single-buffer reference")
	}
	if gobPass {
		fb := gobBytes(t, front)
		if !bytes.Equal(gobBytes(t, back), fb) || !bytes.Equal(fb, gobBytes(t, want)) {
			return fmt.Errorf("back, front and reference not byte-identical")
		}
	}
	// The reference index is derived state Export omits; compare it
	// explicitly.
	var err error
	frontBuf.win.ForEachActive(func(e *stream.Element) {
		kids := frontBuf.win.Children(e.ID)
		if err == nil && (!reflect.DeepEqual(g.back.win.Children(e.ID), kids) || !reflect.DeepEqual(ref.buf.win.Children(e.ID), kids)) {
			err = fmt.Errorf("children of %d diverge", e.ID)
		}
	})
	if err != nil {
		return err
	}
	if st := g.front.Load().stats; st.Buckets != ref.seq || st.ElementsIngested != ref.elems ||
		st.ListUpserts != ref.ups || st.ListDeletes != ref.dels {
		return fmt.Errorf("counters diverge: %+v vs reference %+v", st, *ref)
	}
	return nil
}

// TestDeltaReplayEquivalence is the §9 correctness bar: after replay on
// recycle, the recycled buffer is byte-identical — window export,
// reference index — to the published front, and the lists' published
// version reads the same before and after the sweep, across randomized
// bucket sequences, while concurrent queries run (-race covers the write
// path against the read path). Every bucket, the published front must also
// equal a single buffer maintained by plain Advance → OnChange → Upsert/
// Delete, tuples and counters alike, and the version before it the
// reference's previous bucket, proving record-and-replay and versioning
// change cost, not semantics. Halfway through, an engine restored from the
// original's export joins the lockstep — checked once before its first
// Ingest, then every bucket — so Restore's buffers and lists are held to
// the same bar.
func TestDeltaReplayEquivalence(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const z, v, windowT = 10, 80, 40
		cfg := Config{Model: testutil.RandModel(rng, z, v), WindowLength: windowT, Params: paperConfig().Params}
		g, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSingleBuffer(t, cfg)
		var engines atomic.Pointer[[]*Engine]
		engines.Store(&[]*Engine{g})

		// Concurrent readers stress the snapshot pins while buckets are
		// captured and replayed.
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
						if _, err := e.Query(Query{K: 4, X: x, Algorithm: MTTS}); err != nil {
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

		buckets := randomDeltaStream(rng, z, v, 60, windowT)
		for b, bucket := range buckets {
			if b == len(buckets)/2 {
				r, err := Restore(cfg, g.ExportState())
				if err != nil {
					t.Fatalf("seed %d bucket %d: restore: %v", seed, b, err)
				}
				if err := checkLockstep(t, r, ref, false, true); err != nil {
					t.Fatalf("seed %d bucket %d: restored engine before its first Ingest: %v", seed, b, err)
				}
				engines.Store(&[]*Engine{g, r})
			}
			for _, e := range *engines.Load() {
				if err := e.Ingest(bucket.now, cloneBatch(bucket.batch)); err != nil {
					t.Fatalf("seed %d bucket %d: %v", seed, b, err)
				}
			}
			if err := ref.ingest(bucket.now, cloneBatch(bucket.batch)); err != nil {
				t.Fatalf("seed %d bucket %d (reference): %v", seed, b, err)
			}
			for i, e := range *engines.Load() {
				if err := checkLockstep(t, e, ref, true, b%7 == 6); err != nil {
					t.Fatalf("seed %d bucket %d engine %d: %v", seed, b, i, err)
				}
			}
		}
		close(stop)
		wg.Wait()
	}
}
