package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
)

// slotScript is a seeded op script for the slot lifecycle: buckets whose
// elements carry IDs in no particular order, refer back to live, expired
// and unknown elements (resurrection, dangling references), flushes that
// only move time, and jumps past the window that expire everything.
func slotScript(rng *rand.Rand, z, v, buckets int, windowT stream.Time) []deltaBucket {
	ids := rng.Perm(buckets * 8)
	var out []deltaBucket
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
		out = append(out, deltaBucket{now: now, batch: batch})
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
// over halfway — the active elements and their slots are one to one in
// both buffers; no slot given back in a bucket is handed out again in
// that bucket, and every slot the bucket handed out is free in the buffer
// that will replay it; the twin buffers export byte-identical states; and
// an engine restored from the export, whose slots are handed out afresh,
// answers the same queries bit for bit.
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
		freedAt := map[stream.Slot]int{}
		reused, resurrected := 0, 0
		buckets := slotScript(rng, z, v, 48, windowT)
		for b, bucket := range buckets {
			if err := g.Ingest(bucket.now, bucket.batch); err != nil {
				t.Fatalf("seed %d bucket %d: %v", seed, b, err)
			}
			d := g.pending.win
			resurrected += len(d.Inserted) - len(d.Batch)
			for _, s := range d.InsertedSlots {
				if fb, ok := freedAt[s]; ok {
					if fb >= b {
						t.Fatalf("seed %d bucket %d: slot %d handed out in the bucket that gave it back", seed, b, s)
					}
					reused++
				}
				// The other buffer still holds the previous bucket: the slot
				// must be free there before it replays this one.
				if e := g.back.win.At(s); e != nil {
					t.Fatalf("seed %d bucket %d: slot %d handed out while the replica holds element %d in it", seed, b, s, e.ID)
				}
			}
			for _, s := range d.ExpiredSlots {
				freedAt[s] = b
			}

			g.mu.Lock()
			g.recycle()
			snap := g.front.Load()
			front := snap.buf
			checkSlots(t, front.win, "front")
			checkSlots(t, g.back.win, "back")
			if !bytes.Equal(gobBytes(t, stateOf(g.back.win, listItems(g.lists))), gobBytes(t, stateOf(front.win, listsAt(g, snap.seq)))) {
				g.mu.Unlock()
				t.Fatalf("seed %d bucket %d: twin buffers export different states", seed, b)
			}
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
				g, freedAt = r, map[stream.Slot]int{} // the restored engine carries on
			}
		}
		if reused == 0 || resurrected == 0 {
			t.Fatalf("seed %d: %d slots reused and %d elements resurrected; the script must do both", seed, reused, resurrected)
		}
	}
}
