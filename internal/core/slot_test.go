package core

import (
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
)

// slotScript is a seeded op script for the slot lifecycle: buckets whose
// elements carry IDs in no particular order, refer back to live, expired
// and unknown elements (resurrection, dangling references), flushes that
// only move time, and jumps past the window that expire everything.
func slotScript(rng *rand.Rand, z, v, buckets int, windowT stream.Time) []scriptBucket {
	ids := rng.Perm(buckets * 8)
	var out []scriptBucket
	var seen []stream.ElemID
	now := stream.Time(0)
	for b := 0; b < buckets; b++ {
		prev := now
		switch rng.Intn(12) {
		case 0:
			now += windowT + stream.Time(rng.Intn(10)+1)
		default:
			now += stream.Time(rng.Intn(6) + 1)
		}
		n := rng.Intn(7)
		if rng.Intn(6) == 0 {
			n = 0 // a flush
		}
		batch := make([]*stream.Element, 0, n)
		for i := 0; i < n; i++ {
			id := stream.ElemID(1 + ids[0])
			ids = ids[1:]
			e := testutil.RandElement(rng, int(id), z, v, 0)
			e.TS = prev + 1 + stream.Time(rng.Int63n(int64(now-prev)))
			for r := rng.Intn(3); r > 0 && len(seen) > 0; r-- {
				e.Refs = append(e.Refs, seen[rng.Intn(len(seen))])
			}
			if rng.Intn(8) == 0 {
				e.Refs = append(e.Refs, stream.ElemID(1_000_000+rng.Intn(10))) // dangling
			}
			batch = append(batch, e)
		}
		for _, e := range batch {
			seen = append(seen, e.ID)
		}
		for i := 1; i < len(batch); i++ {
			for j := i; j > 0 && batch[j].TS < batch[j-1].TS; j-- {
				batch[j], batch[j-1] = batch[j-1], batch[j]
			}
		}
		out = append(out, scriptBucket{now: now, batch: batch})
	}
	return out
}

// checkSlots asserts that the active elements of w and their slots are a
// one-to-one map, and that the window's ID lookup agrees with it.
func checkSlots(t *testing.T, w *stream.ActiveWindow, where string) {
	t.Helper()
	n := 0
	w.ForEachActiveSlot(func(e *stream.Element, s stream.Slot) {
		n++
		if got, ok := w.SlotOf(e.ID); !ok || got != s {
			t.Fatalf("%s: element %d sits in slot %d, its ID maps to %d (%v)", where, e.ID, s, got, ok)
		}
	})
	if n != w.NumActive() {
		t.Fatalf("%s: %d occupied slots for %d active elements: two share a slot", where, n, w.NumActive())
	}
}

// Slots through the engine's whole lifecycle: after every bucket of seeded
// scripts — resurrections, IDs out of order, flushes, a restore that takes
// over halfway — the active elements and their slots are one to one; no
// slot an element held at the version before the bucket is handed out by
// the bucket (a slot given back is released, and reused, only from the
// next bucket on, when no reader of the version that still held its
// element is left); and an engine restored from the export, whose slots
// are handed out afresh, answers the same queries bit for bit.
func TestSlotLifecycle(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const z, v, windowT = 6, 40, 30
		cfg := Config{Model: testutil.RandModel(rng, z, v), WindowLength: windowT, Params: paperConfig().Params}
		g, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		used := map[stream.Slot]bool{}
		reused, resurrected := 0, 0
		buckets := slotScript(rng, z, v, 48, windowT)
		for b, bucket := range buckets {
			held := activeSlots(g)
			if err := g.Ingest(bucket.now, bucket.batch); err != nil {
				t.Fatalf("seed %d bucket %d: %v", seed, b, err)
			}
			arrived := map[stream.ElemID]bool{}
			for _, e := range bucket.batch {
				arrived[e.ID] = true
			}
			for s, id := range activeSlots(g) {
				if old, ok := held[s]; ok && old == id {
					continue
				}
				// id entered in this bucket, in slot s.
				if old, ok := held[s]; ok {
					t.Fatalf("seed %d bucket %d: slot %d handed to element %d while the previous version holds element %d in it", seed, b, s, id, old)
				}
				if used[s] {
					reused++
				}
				if !arrived[id] {
					resurrected++
				}
				used[s] = true
			}

			g.mu.Lock()
			checkSlots(t, g.win, "engine")
			g.mu.Unlock()

			r, err := Restore(cfg, g.ExportState())
			if err != nil {
				t.Fatalf("seed %d bucket %d: restore: %v", seed, b, err)
			}
			checkSlots(t, r.Window(), "restored")
			if err := sameResults(engineQueries(t, g), engineQueries(t, r)); err != nil {
				t.Fatalf("seed %d bucket %d: restored engine answers differently: %v", seed, b, err)
			}
			if b == len(buckets)/2 {
				g, used = r, map[stream.Slot]bool{} // the restored engine carries on
			}
		}
		if reused == 0 || resurrected == 0 {
			t.Fatalf("seed %d: %d slots reused and %d elements resurrected; the script must do both", seed, reused, resurrected)
		}
	}
}

// activeSlots maps the slot of every active element of g to its ID.
func activeSlots(g *Engine) map[stream.Slot]stream.ElemID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := map[stream.Slot]stream.ElemID{}
	g.win.ForEachActiveSlot(func(e *stream.Element, s stream.Slot) { out[s] = e.ID })
	return out
}
