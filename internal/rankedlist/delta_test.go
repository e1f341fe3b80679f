package rankedlist

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
)

// Replaying the recorded ops of a random mutation sequence onto a replica
// that started identical keeps the two lists tuple-identical — the
// delta-replay contract the engine's buffer recycling relies on.
func TestApplyDeltaMirrorsRecordedOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		primary, replica := New(), New()

		// Shared warm-up applied identically to both lists.
		for i := 0; i < 64; i++ {
			id := stream.ElemID(rng.Intn(40) + 1)
			score := float64(rng.Intn(8)) / 2
			primary.Upsert(id, score, stream.Time(i))
			replica.Upsert(id, score, stream.Time(i))
		}
		if !reflect.DeepEqual(primary.Items(), replica.Items()) {
			t.Fatalf("seed %d: warm-up diverged", seed)
		}

		// Buckets of recorded mutations, replayed bucket by bucket.
		for bucket := 0; bucket < 30; bucket++ {
			var ops []Op
			for i := 0; i < 20; i++ {
				id := stream.ElemID(rng.Intn(60) + 1)
				switch rng.Intn(4) {
				case 0: // delete (present or not)
					if op, ok := primary.DeleteRecorded(id); ok {
						ops = append(ops, op)
					}
				case 1: // touch: re-upsert the current score
					if it, ok := primary.Get(id); ok {
						ops = append(ops, primary.UpsertRecorded(id, it.Score, stream.Time(bucket*100+i)))
						break
					}
					fallthrough
				default: // insert or rescore
					ops = append(ops, primary.UpsertRecorded(id, float64(rng.Intn(12))/3, stream.Time(bucket*100+i)))
				}
			}
			replica.ApplyDelta(ops)
			if got, want := replica.Items(), primary.Items(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d bucket %d: replica diverged\n got %v\nwant %v", seed, bucket, got, want)
			}
			if replica.Len() != primary.Len() {
				t.Fatalf("seed %d bucket %d: sizes diverge %d vs %d", seed, bucket, replica.Len(), primary.Len())
			}
		}
	}
}

// Recorded op kinds reflect what actually happened, and the position hints
// describe the predecessors at op time (IDs 5 and 7 both hash to
// bottom-level-only nodes, so their hints are recorded).
func TestRecordedOpKindsAndHints(t *testing.T) {
	l := New()
	op := l.UpsertRecorded(5, 2.0, 1)
	if op.Kind != OpInsert || !op.at.ok || op.at.heads&1 == 0 {
		t.Fatalf("first insert: got %+v, want hinted OpInsert at head", op)
	}
	op = l.UpsertRecorded(7, 1.0, 2) // lower score ⇒ after 5
	if op.Kind != OpInsert || !op.at.ok || op.at.heads&1 != 0 || op.at.prevs[0] != 5 {
		t.Fatalf("second insert: got %+v, want hinted OpInsert after 5", op)
	}
	op = l.UpsertRecorded(7, 1.0, 9)
	if op.Kind != OpTouch || op.Item.LastRef != 9 {
		t.Fatalf("same-score upsert: got %+v, want OpTouch", op)
	}
	op = l.UpsertRecorded(7, 3.0, 10) // now outranks 5
	if op.Kind != OpRescore || !op.from.ok || op.from.prevs[0] != 5 || op.at.heads&1 == 0 {
		t.Fatalf("score change: got %+v, want OpRescore from after-5 to head", op)
	}
	op, ok := l.DeleteRecorded(5)
	if !ok || op.Kind != OpDelete || !op.at.ok || op.at.prevs[0] != 7 {
		t.Fatalf("delete: got %+v ok=%v, want hinted OpDelete after 7", op, ok)
	}
	if _, ok := l.DeleteRecorded(5); ok {
		t.Fatal("deleting an absent id reported ok")
	}
}

// The engine's recycle cycle: a replica whose nodes back a published
// snapshot refuses the bucket's delta until Thaw, then splices it in place
// onto the nodes it shared, and its next snapshot equals the primary.
func TestApplyDeltaDetachesSharedNodes(t *testing.T) {
	primary, replica := New(), New()
	for _, l := range []*List{primary, replica} {
		l.Upsert(1, 3, 1)
		l.Upsert(2, 2, 1)
	}
	snap := replica.Freeze()
	before := snap.Items()

	var ops []Op
	ops = append(ops, primary.UpsertRecorded(3, 1, 2))
	op, _ := primary.DeleteRecorded(1)
	ops = append(ops, op)
	if !mustPanic(func() { replica.ApplyDelta(ops) }) {
		t.Fatal("ApplyDelta on a frozen replica did not panic")
	}
	if !reflect.DeepEqual(snap.Items(), before) {
		t.Fatalf("snapshot mutated through ApplyDelta: %v vs %v", snap.Items(), before)
	}
	replica.Thaw()
	replica.ApplyDelta(ops)
	if got := replica.Freeze().Items(); !reflect.DeepEqual(got, primary.Items()) {
		t.Fatalf("replica diverged: %v vs %v", got, primary.Items())
	}
}
