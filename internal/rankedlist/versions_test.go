package rankedlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
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

// refList is the single-version reference: a list's tuples by ID, dumped
// sorted by score, then ID.
type refList map[stream.ElemID]Item

func (r refList) items() []Item {
	out := make([]Item, 0, len(r))
	for _, it := range r {
		out = append(out, it)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// checkLinks walks every level of l: each is in strictly ascending node
// order, holds only nodes that reach the level, and is a subsequence of
// the level below; at level 0 every node's prev is the node before it. It
// returns the nodes linked at level 0.
func checkLinks(l *List) ([]*node, error) {
	var below []*node
	for lv := l.level - 1; lv >= 0; lv-- {
		var at []*node
		for p, n := l.head, l.head.nextAt(lv); n != nil; p, n = n, n.nextAt(lv) {
			if n.level() <= lv {
				return nil, fmt.Errorf("level %d links element %d, a node of %d levels", lv, n.item.ID, n.level())
			}
			if lv == 0 && n.prev != p {
				return nil, fmt.Errorf("element %d's prev is not the node before it", n.item.ID)
			}
			if k := len(at); k > 0 && !at[k-1].before(n.item, n.born) {
				return nil, fmt.Errorf("level %d out of order at element %d", lv, n.item.ID)
			}
			at = append(at, n)
		}
		for i, j := 0, 0; i < len(below); i, j = i+1, j+1 {
			for j < len(at) && at[j] != below[i] {
				j++
			}
			if j == len(at) {
				return nil, fmt.Errorf("level %d skips a node of level %d", lv, lv+1)
			}
		}
		below = at
	}
	return below, nil
}

// Random runs of inserts, rescores, touches (the same score again, which
// must keep the node), second writes of a cell within one version and
// deletes of elements with up to
// six topics, driven through the slot handles of lists sharing one node
// table, read at every published version exactly the tuples and order of
// a single-version reference. A reader goroutine pinned at version F reads
// F, unchanged, all the while the writer builds and publishes F+1; only
// then does the writer sweep. After every sweep each list links exactly
// its live nodes, on well-formed levels. Run it under -race: the reader
// and the writer share every node.
func TestVersionsMatchSingleVersionReference(t *testing.T) {
	const z = 8
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(100)
		var lists [z]*List
		refs := make([]refList, z)
		for i := range lists {
			lists[i], refs[i] = tab.New(), refList{}
		}
		type elem struct {
			id     stream.ElemID
			s      stream.Slot
			topics []int
		}
		var pool slotPool
		var live []elem
		nextID := stream.ElemID(1)
		dump := func() [][]Item {
			out := make([][]Item, z)
			for i, r := range refs {
				out[i] = r.items()
			}
			return out
		}
		upsert := func(e elem, j int, score float64) {
			topic := e.topics[j]
			lists[topic].UpsertAt(e.s, j, e.id, score)
			refs[topic][e.id] = Item{ID: e.id, Score: score}
		}

		// The reader: handed a version and its expected tuples, it reads
		// them until told to stop, then reports.
		type pin struct {
			seq  int64
			want [][]Item
		}
		pins := make(chan pin)
		var stop atomic.Bool
		errs := make(chan error)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pins {
				var err error
				for reads := 0; err == nil && (reads == 0 || !stop.Load()); reads++ {
					for i, l := range lists {
						if got := l.ItemsAt(p.seq, 0); !reflect.DeepEqual(got, p.want[i]) {
							err = fmt.Errorf("reader at version %d: list %d reads %v, want %v", p.seq, i, got, p.want[i])
							break
						}
					}
				}
				errs <- err
			}
		}()

		seq := tab.Publish()
		pins <- pin{seq, dump()}
		var touches, rewrites int
		for bucket := 0; bucket < 50; bucket++ {
			pool.release()
			for i := 0; i < 14; i++ {
				switch r := rng.Intn(12); {
				case r < 4 || len(live) == 0: // a new element
					e := elem{id: nextID, s: pool.get()}
					nextID += stream.ElemID(1 + rng.Intn(3))
					e.topics = rng.Perm(z)[:1+rng.Intn(6)]
					for j := range e.topics {
						upsert(e, j, float64(rng.Intn(8))/2)
					}
					live = append(live, e)
				case r < 6: // delete a live element from all its lists
					k := rng.Intn(len(live))
					e := live[k]
					live = append(live[:k], live[k+1:]...)
					for j, topic := range e.topics {
						if !lists[topic].DeleteAt(e.s, j) {
							t.Fatalf("seed %d: element %d missing from list %d", seed, e.id, topic)
						}
						delete(refs[topic], e.id)
					}
					pool.pending = append(pool.pending, e.s)
				default: // rescore, touch or rewrite one topic of a live element
					e := live[rng.Intn(len(live))]
					j := rng.Intn(len(e.topics))
					l := lists[e.topics[j]]
					old, _ := l.GetAt(e.s, j)
					switch rng.Intn(4) {
					case 0, 1: // touch: the same score again
						n, dead := l.node(e.s, j), len(tab.dead)
						upsert(e, j, old.Score)
						if l.node(e.s, j) != n || len(tab.dead) != dead {
							t.Fatalf("seed %d: a touch of element %d replaced its node", seed, e.id)
						}
						touches++
					case 2: // twice in this version
						upsert(e, j, float64(rng.Intn(8))/2)
						upsert(e, j, float64(rng.Intn(8))/2)
						rewrites++
					default:
						upsert(e, j, float64(rng.Intn(8))/2)
					}
				}
			}
			want := dump()
			for i, l := range lists {
				if l.Len() != len(want[i]) {
					t.Fatalf("seed %d bucket %d: list %d has %d tuples, want %d", seed, bucket, i, l.Len(), len(want[i]))
				}
			}
			seq = tab.Publish()
			stop.Store(true)
			if err := <-errs; err != nil {
				t.Fatalf("seed %d bucket %d: %v", seed, bucket, err)
			}
			stop.Store(false)
			tab.Sweep()
			for i, l := range lists {
				linked, err := checkLinks(l)
				if err != nil {
					t.Fatalf("seed %d bucket %d list %d: %v", seed, bucket, i, err)
				}
				if len(linked) != l.Len() {
					t.Fatalf("seed %d bucket %d list %d: %d nodes linked after the sweep for %d tuples", seed, bucket, i, len(linked), l.Len())
				}
				if got := l.Items(); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("seed %d bucket %d list %d: writer reads %v, want %v", seed, bucket, i, got, want[i])
				}
			}
			pins <- pin{seq, want}
		}
		stop.Store(true)
		close(pins)
		if err := <-errs; err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wg.Wait()
		if touches == 0 || rewrites == 0 {
			t.Fatalf("seed %d: %d touches and %d rewrites; the run must cover both", seed, touches, rewrites)
		}
	}
}

// What each write does to the versions: an insert is seen from its own
// version on, a delete up to the version before its own; a rescore leaves
// the old tuple to the old versions and the new one to the new; a touch
// (the same score again) writes nothing; a node written and removed within
// one version is unlinked at once, never marked. IDs 5 and 7 hash to nodes
// of one level.
func TestWritesMakeVersions(t *testing.T) {
	tab := NewTable(0)
	l := tab.New()
	l.UpsertAt(0, 0, 5, 2.0)
	l.UpsertAt(1, 0, 7, 1.0)
	v0 := tab.Publish()

	seven := l.node(1, 0)
	l.UpsertAt(1, 0, 7, 1.0) // touch
	if l.node(1, 0) != seven {
		t.Fatal("the touch replaced the node")
	}
	l.UpsertAt(0, 0, 5, 0.5) // rescore below 7
	l.UpsertAt(2, 0, 9, 3.0) // insert
	l.UpsertAt(2, 0, 9, 4.0) // and rescore within the version
	if len(tab.dead) != 1 {
		t.Fatalf("%d nodes marked dead, want 1 (the rescored one)", len(tab.dead))
	}
	if !l.DeleteAt(1, 0) || l.DeleteAt(1, 0) {
		t.Fatal("DeleteAt reports a missing tuple, or one deleted twice")
	}
	v1 := tab.Publish()

	for _, c := range []struct {
		seq  int64
		want []Item
	}{
		{v0, []Item{{5, 2.0}, {7, 1.0}}},
		{v1, []Item{{9, 4.0}, {5, 0.5}}},
	} {
		if got := l.ItemsAt(c.seq, 0); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("version %d reads %v, want %v", c.seq, got, c.want)
		}
	}
	// Linked: the v1 nodes of 9 and 5 and the dead v0 nodes of 5 and 7.
	// The first node of 9, written and removed within v1, went at once.
	if linked, _ := checkLinks(l); len(linked) != 4 {
		t.Fatalf("%d nodes linked before the sweep, want 4", len(linked))
	}
	tab.Sweep()
	if linked, _ := checkLinks(l); len(linked) != 2 || len(tab.dead) != 0 {
		t.Fatalf("%d nodes linked and %d dead after the sweep, want 2 and 0", len(linked), len(tab.dead))
	}
	if got := l.ItemsAt(v1, 0); !reflect.DeepEqual(got, []Item{{9, 4.0}, {5, 0.5}}) {
		t.Fatalf("the sweep changed version %d: %v", v1, got)
	}
}

// Sweep unlinks only what published versions removed: a node removed in
// the version being written stays linked for the readers of the last
// published one.
func TestSweepKeepsPublishedVersion(t *testing.T) {
	tab := NewTable(0)
	l := tab.New()
	for s := range stream.Slot(6) {
		l.UpsertAt(s, 0, stream.ElemID(s+1), float64(s))
	}
	tab.Publish()
	l.DeleteAt(0, 0)
	v1 := tab.Publish()
	l.DeleteAt(1, 0) // in version 2, unpublished
	tab.Sweep()
	if len(tab.dead) != 1 || tab.dead[0].item.ID != 2 {
		t.Fatalf("after the sweep %d nodes stay dead, want element 2's alone", len(tab.dead))
	}
	if got := l.ItemsAt(v1, 0); len(got) != 5 || got[4].ID != 2 {
		t.Fatalf("version %d reads %v, want elements 6..2", v1, got)
	}
	if got := l.Items(); len(got) != 4 {
		t.Fatalf("the version being written reads %v, want elements 6..3", got)
	}
}
