package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Every element comes back bit for bit from its archive record, whether
// decoded alone (a resurrection) or together with others (a load), and its
// record has the size RecordSize says and RecordLen reads back.
func TestArchiveRecordRoundTrip(t *testing.T) {
	elems := testutil.EdgeElements(rand.New(rand.NewSource(1)), 300)
	var a stream.Archive
	for i, e := range elems {
		a.Append(e)
		if rec, _, _ := a.Record(i); len(rec) != stream.RecordSize(e) {
			t.Fatalf("element %d: record of %d bytes, stream.RecordSize says %d", e.ID, len(rec), stream.RecordSize(e))
		} else if n, ok := stream.RecordLen(append(rec, e.Text...)); !ok || n != len(rec) {
			t.Fatalf("element %d: stream.RecordLen reads %d, %v of a %d-byte record", e.ID, n, ok, len(rec))
		}
	}
	idx := make([]int, len(elems))
	for i := range idx {
		idx[i] = i
	}
	all, err := a.Elements(idx...)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range elems {
		testutil.SameElement(t, all[i], e)
		one, err := a.Elements(i)
		if err != nil {
			t.Fatal(err)
		}
		testutil.SameElement(t, one[0], e)
	}
	// A prefix is the same records, and re-archiving the decoded
	// elements writes the same bytes.
	p := a.Prefix(len(elems) / 2)
	var again stream.Archive
	for _, e := range all[:p.Len()] {
		again.Append(e)
	}
	if !reflect.DeepEqual(again, p) {
		t.Fatal("re-archived elements differ from the archive's prefix")
	}
}

// A resurrected element is carved from shared storage: appending to one of
// its slices must not reach the next element's.
func TestResurrectedSlicesAreCapped(t *testing.T) {
	w := stream.NewActiveWindow(10)
	mk := func(id stream.ElemID, ts stream.Time, refs ...stream.ElemID) *stream.Element {
		return &stream.Element{ID: id, TS: ts, Doc: textproc.NewDocument([]textproc.WordID{1, 2}),
			Topics: topicmodel.TopicVec{Topics: []int32{0}, Probs: []float64{1}}, Refs: refs}
	}
	steps := []struct {
		now   stream.Time
		batch []*stream.Element
	}{
		{5, []*stream.Element{mk(1, 1), mk(2, 2)}},
		{30, []*stream.Element{mk(3, 25)}},       // 1 and 2 expire
		{40, []*stream.Element{mk(4, 35, 1, 2)}}, // and come back
	}
	var cs stream.ChangeSet
	for _, s := range steps {
		var err error
		if cs, err = w.Advance(s.now, s.batch); err != nil {
			t.Fatal(err)
		}
	}
	if len(cs.Inserted) != 3 {
		t.Fatalf("inserted %d elements, want 4 then the resurrected 1 and 2", len(cs.Inserted))
	}
	r1, r2 := cs.Inserted[1], cs.Inserted[2]
	_ = append(r1.Doc.Terms, textproc.TermCount{Word: 99, Count: 99})
	_ = append(r1.Topics.Topics, 99)
	if !reflect.DeepEqual(r2.Doc.Terms, mk(2, 2).Doc.Terms) || r2.Topics.Topics[0] != 0 {
		t.Fatal("an append to one resurrected element wrote into the next")
	}
}

// FuzzArchiveRecord feeds the record decoder arbitrary bytes. It must never
// panic, and a record it accepts must re-encode to the very bytes it read,
// so no two records mean the same element.
func FuzzArchiveRecord(f *testing.F) {
	for _, e := range testutil.EdgeElements(rand.New(rand.NewSource(2)), 5) {
		f.Add(stream.AppendRecord(nil, e), e.Text)
	}
	f.Add([]byte{}, "")
	f.Add(bytes.Repeat([]byte{0xff}, stream.RecordMin), "")
	// Elements a small model cannot score: a resurrection must refuse them.
	f.Add(stream.AppendRecord(nil, &stream.Element{ID: 9, TS: 2,
		Topics: topicmodel.TopicVec{Topics: []int32{1, 99}, Probs: []float64{0.5, 0.5}}}), "")
	f.Add(stream.AppendRecord(nil, &stream.Element{ID: 9, TS: 2,
		Doc:    textproc.Document{Terms: []textproc.TermCount{{Word: 1 << 20, Count: 1}}, Len: 1},
		Topics: topicmodel.TopicVec{Topics: []int32{0}, Probs: []float64{1}}}), "")
	f.Fuzz(func(t *testing.T, rec []byte, text string) {
		n, ok := stream.RecordLen(rec)
		if !ok {
			if _, err := stream.DecodeRecords([][]byte{rec}, []string{text}); err == nil {
				t.Fatal("stream.DecodeRecords accepted a record stream.RecordLen refuses")
			}
			return
		}
		if n > len(rec) {
			t.Fatalf("stream.RecordLen %d past the %d bytes given", n, len(rec))
		}
		es, err := stream.DecodeRecords([][]byte{rec[:n]}, []string{text})
		if err != nil {
			t.Fatalf("stream.DecodeRecords refused a record stream.RecordLen accepts: %v", err)
		}
		if again := stream.AppendRecord(nil, es[0]); !bytes.Equal(again, rec[:n]) {
			t.Fatalf("accepted record re-encodes to %x, read %x", again, rec[:n])
		}
		if es[0].Text != text {
			t.Fatal("decoded text differs")
		}
		checkResurrection(t, es[0])
	})
}

// checkResurrection archives e, then resurrects it in a window whose Check
// admits what a 4-topic, 16-word model can score: the advance resurrects
// an element that fits, and fails with ErrArchiveRead, leaving the window
// as it was, on one that does not.
func checkResurrection(t *testing.T, e *stream.Element) {
	t.Helper()
	fits := func(e *stream.Element) error {
		for _, z := range e.Topics.Topics {
			if z < 0 || z >= 4 {
				return fmt.Errorf("topic %d", z)
			}
		}
		for _, tc := range e.Doc.Terms {
			if tc.Word < 0 || tc.Word >= 16 {
				return fmt.Errorf("word %d", tc.Word)
			}
		}
		return nil
	}
	const T = 10
	w := stream.NewActiveWindow(T)
	w.Check = fits
	parent := *e
	parent.ID, parent.TS, parent.Refs = 1, 1, nil
	if _, err := w.Advance(1, []*stream.Element{&parent}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Advance(2+T, nil); err != nil || w.NumActive() != 0 {
		t.Fatalf("the parent did not expire: %v", err)
	}
	child := &stream.Element{ID: 2, TS: 3 + T, Refs: []stream.ElemID{1}}
	_, err := w.Advance(child.TS, []*stream.Element{child})
	switch {
	case fits(&parent) == nil && (err != nil || w.NumActive() != 2):
		t.Fatalf("a parent that fits was not resurrected: %v", err)
	case fits(&parent) != nil && (!errors.Is(err, stream.ErrArchiveRead) || w.NumActive() != 0 || w.Now() != 2+T):
		t.Fatalf("a parent that does not fit: advance returned %v, %d active at %d", err, w.NumActive(), w.Now())
	}
}
