package rankedlist

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
)

// slotPool hands out slots the way the window does: a slot given back in
// one bucket is reused only from the next.
type slotPool struct {
	free, pending []stream.Slot
	next          stream.Slot
}

func (p *slotPool) get() stream.Slot {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.next++
	return p.next - 1
}

func (p *slotPool) release() { p.free, p.pending = append(p.free, p.pending...), p.pending[:0] }

// layout dumps a list's tuples in order with each node's slot, column
// and successor at every level it links: what a replica must match
// exactly.
type layoutEntry struct {
	Item  Item
	Slot  stream.Slot
	J     uint16
	Links []stream.ElemID // successor IDs by level, 0 for none
}

func layout(l *List) []layoutEntry {
	var out []layoutEntry
	for n := l.head.link[0]; n != nil; n = n.link[0] {
		e := layoutEntry{Item: n.item, Slot: n.slot, J: n.j}
		for lv := range n.level() {
			var id stream.ElemID
			if nx := n.next(lv); nx != nil {
				id = nx.item.ID
			}
			e.Links = append(e.Links, id)
		}
		out = append(out, e)
	}
	return out
}

// tallID returns the first ID from start on whose node is taller than
// hintLevels, so its ops replay through the descent, not the hint.
func tallID(start stream.ElemID) stream.ElemID {
	for id := start; ; id++ {
		if nodeLevel(id) > hintLevels {
			return id
		}
	}
}

// Random runs of inserts, rescores, touches and deletes of elements with
// up to six topics (more than a table row starts with), driven through
// the slot handles of lists sharing one node table and replayed bucket by bucket with Apply onto replica lists
// on a table of their own, keep every replica identical to its recording
// list: tuples, order, slots and node levels. The runs cover the hinted
// O(1) splices and, through IDs whose nodes are taller than hintLevels,
// the descent; a standalone list driven by ID through the shim, fed each
// topic's same sequence, holds the same tuples.
func TestApplyDeltaMirrorsRecordedOps(t *testing.T) {
	const z = 8
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, rtab := NewTable(), NewTable()
		var primary, replica, byID [z]*List
		for i := range primary {
			primary[i], replica[i], byID[i] = tab.New(), rtab.New(), New()
		}
		type elem struct {
			id     stream.ElemID
			s      stream.Slot
			topics []int
		}
		var pool slotPool
		var live []elem
		nextID := stream.ElemID(1)
		hinted, descents := 0, 0
		type topicOp struct {
			topic int
			op    Op
		}
		for bucket := 0; bucket < 60; bucket++ {
			pool.release()
			var ops []topicOp
			record := func(topic int, op Op) {
				ops = append(ops, topicOp{topic, op})
				if op.at.ok {
					hinted++
				} else if op.Kind != OpTouch {
					descents++
				}
			}
			for i := 0; i < 12; i++ {
				switch r := rng.Intn(10); {
				case r < 4 || len(live) == 0: // insert a new element
					id := nextID
					if rng.Intn(6) == 0 {
						id = tallID(nextID)
					}
					nextID = id + 1
					e := elem{id: id, s: pool.get()}
					for _, topic := range rng.Perm(z)[:1+rng.Intn(6)] {
						e.topics = append(e.topics, topic)
					}
					for j, topic := range e.topics {
						sc := float64(rng.Intn(8)) / 2
						record(topic, primary[topic].UpsertAt(e.s, j, id, sc, stream.Time(bucket)))
						byID[topic].Upsert(id, sc, stream.Time(bucket))
					}
					live = append(live, e)
				case r < 6: // delete a live element from all its lists
					k := rng.Intn(len(live))
					e := live[k]
					live = append(live[:k], live[k+1:]...)
					for j, topic := range e.topics {
						op, ok := primary[topic].DeleteAt(e.s, j)
						if !ok {
							t.Fatalf("seed %d: element %d missing from list %d", seed, e.id, topic)
						}
						record(topic, op)
						byID[topic].Delete(e.id)
					}
					pool.pending = append(pool.pending, e.s)
				default: // rescore or touch one topic of a live element
					e := live[rng.Intn(len(live))]
					j := rng.Intn(len(e.topics))
					topic := e.topics[j]
					sc := float64(rng.Intn(8)) / 2
					if rng.Intn(3) == 0 {
						it, _ := primary[topic].GetAt(e.s, j)
						sc = it.Score
					}
					record(topic, primary[topic].UpsertAt(e.s, j, e.id, sc, stream.Time(bucket*100+i)))
					byID[topic].Upsert(e.id, sc, stream.Time(bucket*100+i))
				}
			}
			for i := range ops {
				replica[ops[i].topic].Apply(&ops[i].op)
			}
			for topic := range primary {
				if got, want := layout(replica[topic]), layout(primary[topic]); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d bucket %d list %d: replica diverged\n got %v\nwant %v", seed, bucket, topic, got, want)
				}
				if replica[topic].Len() != primary[topic].Len() {
					t.Fatalf("seed %d bucket %d list %d: sizes diverge", seed, bucket, topic)
				}
				if got, want := byID[topic].Items(), primary[topic].Items(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d bucket %d list %d: ID-driven list diverged\n got %v\nwant %v", seed, bucket, topic, got, want)
				}
			}
		}
		if hinted == 0 || descents == 0 {
			t.Fatalf("seed %d: %d hinted and %d unhinted ops; the run must cover both", seed, hinted, descents)
		}
	}
}

// A replica whose state diverged from the recording list's still ends
// identical: every hint is verified, and a failed one falls back to the
// descent instead of splicing at the wrong place.
func TestApplyFallsBackOnStaleHints(t *testing.T) {
	primary, replica := New(), New()
	primary.UpsertAt(0, 0, 1, 3, 1)
	primary.UpsertAt(1, 0, 2, 2, 1)
	replica.UpsertAt(0, 0, 1, 3, 1)
	replica.UpsertAt(5, 0, 9, 2.5, 1) // a tuple the primary lacks
	op := primary.UpsertAt(2, 0, 4, 2.5, 2)
	replica.Apply(&op)
	del, _ := primary.DeleteAt(1, 0)
	replica.Apply(&del)
	got, want := replica.Items(), []Item{{1, 3, 1}, {4, 2.5, 2}, {9, 2.5, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replica = %v, want %v", got, want)
	}
}

// Recorded op kinds reflect what actually happened, and the position hints
// name the predecessors' cells at op time (IDs 5 and 7 both hash to
// bottom-level-only nodes, so their hints are recorded).
func TestRecordedOpKindsAndHints(t *testing.T) {
	l := New()
	op := l.UpsertAt(0, 0, 5, 2.0, 1)
	if op.Kind != OpInsert || !op.at.ok || op.at.heads&1 == 0 {
		t.Fatalf("first insert: got %+v, want hinted OpInsert at head", op)
	}
	op = l.UpsertAt(1, 0, 7, 1.0, 2) // lower score ⇒ after 5
	if op.Kind != OpInsert || !op.at.ok || op.at.heads&1 != 0 || op.at.prevs[0] != (cell{0, 0}) {
		t.Fatalf("second insert: got %+v, want hinted OpInsert after slot 0", op)
	}
	op = l.UpsertAt(1, 0, 7, 1.0, 9)
	if op.Kind != OpTouch || op.Item.LastRef != 9 {
		t.Fatalf("same-score upsert: got %+v, want OpTouch", op)
	}
	op = l.UpsertAt(1, 0, 7, 3.0, 10) // now outranks 5
	if op.Kind != OpRescore || !op.from.ok || op.from.prevs[0] != (cell{0, 0}) || op.at.heads&1 == 0 {
		t.Fatalf("score change: got %+v, want OpRescore from after slot 0 to head", op)
	}
	op, ok := l.DeleteAt(0, 0)
	if !ok || op.Kind != OpDelete || !op.at.ok || op.at.prevs[0] != (cell{1, 0}) || op.Item.ID != 5 {
		t.Fatalf("delete: got %+v ok=%v, want hinted OpDelete of 5 after slot 1", op, ok)
	}
	if _, ok := l.DeleteAt(0, 0); ok {
		t.Fatal("deleting an absent slot reported ok")
	}
	if op := l.UpsertAt(9, 0, tallID(100), 1, 1); op.at.ok {
		t.Fatalf("a node taller than %d levels recorded a hint: %+v", hintLevels, op)
	}
}

// The engine's recycle cycle: a replica whose nodes back a published
// snapshot refuses the bucket's delta until Thaw, then splices it in place
// onto the nodes it shared, and its next snapshot equals the primary.
func TestApplyDeltaDetachesSharedNodes(t *testing.T) {
	primary, replica := New(), New()
	for _, l := range []*List{primary, replica} {
		l.UpsertAt(0, 0, 1, 3, 1)
		l.UpsertAt(1, 0, 2, 2, 1)
	}
	snap := replica.Freeze()
	before := snap.Items()

	var ops []Op
	ops = append(ops, primary.UpsertAt(2, 0, 3, 1, 2))
	op, _ := primary.DeleteAt(0, 0)
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
