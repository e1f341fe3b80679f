package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// The ID index agrees with a plain map whatever order the IDs come in:
// in order throughout, out of order from the start, or in order for a
// while and then not.
func TestIDIndexMatchesMap(t *testing.T) {
	for name, sortedFor := range map[string]int{"in order": 1 << 30, "never": 0, "for a while": 300} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sortedFor)))
			var x idIndex
			want := map[ElemID]int{}
			next := ElemID(0)
			for i := 0; i < 1000; i++ {
				id := next + 1 + ElemID(rng.Intn(5))
				if i >= sortedFor {
					id = ElemID(rng.Int63n(1 << 20))
				}
				if _, dup := want[id]; dup {
					continue
				}
				next = max(next, id)
				if _, ok := x.lookup(id); ok {
					t.Fatalf("new ID %d found", id)
				}
				want[id] = x.len()
				x.add(id)
			}
			if x.len() != len(want) {
				t.Fatalf("index holds %d arrivals, want %d", x.len(), len(want))
			}
			for id, seq := range want {
				if got, ok := x.lookup(id); !ok || got != seq {
					t.Fatalf("lookup(%d) = %d, %v; want %d", id, got, ok, seq)
				}
			}
			if sortedFor < 1000 && x.rest == nil {
				t.Fatal("out-of-order IDs never reached the map")
			}
		})
	}
}

// A producer that numbers posts out of arrival order — every arrival past
// the first goes to the index's map — gets the same window as one that
// numbers them in order: the same active set, last-ref times, referrers
// and resurrections, before and after an export and restore.
func TestOutOfOrderIDsMatchInOrder(t *testing.T) {
	const T = 300
	// scramble is a bijection on [1, 100002] that breaks the order at the
	// second ID.
	scramble := func(id ElemID) ElemID { return id * 7919 % 100003 }
	rng := rand.New(rand.NewSource(11))
	in, out := NewActiveWindow(T), NewActiveWindow(T)
	next := ElemID(1)
	step := func() {
		now := in.Now() + 60
		var bi, bo []*Element
		for i := 0; i < 1+rng.Intn(5); i++ {
			bi = append(bi, &Element{
				TS:     in.Now() + 1 + Time(rng.Intn(60)),
				Doc:    textproc.NewDocument([]textproc.WordID{textproc.WordID(rng.Intn(5))}),
				Topics: topicmodel.TopicVec{Topics: []int32{int32(rng.Intn(3))}, Probs: []float64{1}},
			})
		}
		sortByTS(bi)
		for _, e := range bi {
			e.ID = next
			if next > 1 && rng.Intn(2) == 0 {
				e.Refs = []ElemID{1 + ElemID(rng.Int63n(int64(next-1)))}
			}
			next++
		}
		for _, e := range bi {
			o := *e
			o.ID, o.Refs = scramble(e.ID), nil
			for _, r := range e.Refs {
				o.Refs = append(o.Refs, scramble(r))
			}
			bo = append(bo, &o)
		}
		ci, err := in.Advance(now, bi)
		if err != nil {
			t.Fatal(err)
		}
		co, err := out.Advance(now, bo)
		if err != nil {
			t.Fatal(err)
		}
		if len(ci.Inserted) != len(co.Inserted) || len(ci.Updated) != len(co.Updated) || len(ci.Expired) != len(co.Expired) {
			t.Fatalf("at %d: change sets differ: %d/%d/%d vs %d/%d/%d inserted/updated/expired", now,
				len(ci.Inserted), len(ci.Updated), len(ci.Expired), len(co.Inserted), len(co.Updated), len(co.Expired))
		}
	}
	same := func(when string) {
		t.Helper()
		if in.NumActive() != out.NumActive() {
			t.Fatalf("%s: %d active vs %d", when, in.NumActive(), out.NumActive())
		}
		for _, id := range in.ActiveIDs() {
			lr, _ := in.LastRef(id)
			if got, ok := out.LastRef(scramble(id)); !ok || got != lr {
				t.Fatalf("%s: element %d: last-ref %d, %v; want %d", when, id, got, ok, lr)
			}
			want := map[ElemID]bool{}
			in.ForEachChild(id, func(c *Element) { want[scramble(c.ID)] = true })
			got := map[ElemID]bool{}
			out.ForEachChild(scramble(id), func(c *Element) { got[c.ID] = true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: element %d: referrers differ", when, id)
			}
		}
	}
	for i := 0; i < 40; i++ {
		step()
	}
	same("live")
	if out.index.rest == nil || in.index.rest != nil {
		t.Fatal("the scrambled IDs never reached the map, or the ordered ones did")
	}
	var err error
	if out, err = Restore(T, out.Export()); err != nil {
		t.Fatal(err)
	}
	same("restored")
	for i := 0; i < 40; i++ {
		step()
	}
	same("after more advances")
}
