package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// memLog is an element log in memory, framed the way a checkpoint frames
// one: an 8-byte header, here left blank, then the record and the text.
type memLog struct {
	data  []byte
	fail  error // when set, every read fails with it
	reads int
}

func (l *memLog) ReadFrame(start, end int64) ([]byte, error) {
	l.reads++
	if l.fail != nil {
		return nil, l.fail
	}
	if start < 0 || end > int64(len(l.data)) || end-start < 8 {
		return nil, fmt.Errorf("no frame at [%d, %d)", start, end)
	}
	return l.data[start+8 : end], nil
}

// checkpoint frames every arrival of w past the durable prefix — the
// archive's, then the window queue's — as a checkpoint does, and hands w
// the frames.
func (l *memLog) checkpoint(t *testing.T, w *ActiveWindow) {
	t.Helper()
	st := w.Export()
	first := len(w.archive.Frames)
	var ends []int64
	frame := func(rec []byte, text string) {
		l.data = append(append(append(l.data, make([]byte, 8)...), rec...), text...)
		ends = append(ends, int64(len(l.data)))
	}
	for i := first; i < st.Archive.Len(); i++ {
		rec, text, err := st.Archive.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		frame(rec, text)
	}
	for _, e := range st.Window[max(first-st.Archive.Len(), 0):] {
		frame(AppendRecord(nil, e), e.Text)
	}
	if err := w.AdoptLog(l, first, ends); err != nil {
		t.Fatal(err)
	}
	if a := &w.archive; len(a.Ends) != 0 || len(a.Texts) != 0 || len(a.Records) != 0 || w.archiveText != 0 {
		t.Fatalf("after a checkpoint the archive still holds %d records (%d text bytes)", len(a.Ends), w.archiveText)
	}
}

// flat is w's export with the archive read back into memory, the form a
// memory-only window exports.
func flat(t *testing.T, w *ActiveWindow) WindowState {
	t.Helper()
	st := w.Export()
	arch, err := st.Archive.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	st.Archive = arch
	return st
}

// A window whose archive lives in an element log — checkpointed every few
// buckets, so some elements leave the window as records and some as frame
// ends — exports exactly what a memory-only twin exports after every
// advance, resurrecting through the log.
func TestArchiveInLogMatchesMemory(t *testing.T) {
	reads := 0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const T = 20
		mem, logged := NewActiveWindow(T), NewActiveWindow(T)
		log := &memLog{}
		for b, step := range randomBuckets(rng, 60) {
			now, batch := step[0].(Time), step[1].([]*Element)
			if _, err := mem.Advance(now, batch); err != nil {
				t.Fatalf("seed %d bucket %d: %v", seed, b, err)
			}
			if _, err := logged.Advance(now, batch); err != nil {
				t.Fatalf("seed %d bucket %d: %v", seed, b, err)
			}
			if got, want := flat(t, logged), flat(t, mem); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d bucket %d: exports diverge\n got %+v\nwant %+v", seed, b, got, want)
			}
			if b%3 == 2 {
				log.checkpoint(t, logged)
			}
		}
		if logged.ApproxBytes() >= mem.ApproxBytes() {
			t.Errorf("seed %d: the logged window holds %d bytes, the memory-only one %d", seed, logged.ApproxBytes(), mem.ApproxBytes())
		}
		reads += log.reads
	}
	if reads == 0 {
		t.Fatal("no resurrection read the element log")
	}
}

// An advance whose resurrection cannot read its element back fails before
// it changes anything — time included — with ErrArchiveRead; the same
// bucket goes through once the log reads again. So does a log that gives
// back another element in the resurrected one's place.
func TestArchiveReadFailureLeavesWindow(t *testing.T) {
	const T = 10
	w := NewActiveWindow(T)
	log := &memLog{}
	old := &Element{ID: 1, TS: 1, Text: "old post"}
	other := &Element{ID: 2, TS: 2, Text: "other post"}
	if _, err := w.Advance(5, []*Element{old, other}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Advance(30, nil); err != nil { // both expire
		t.Fatal(err)
	}
	log.checkpoint(t, w)
	before := flat(t, w)
	child := &Element{ID: 3, TS: 35, Refs: []ElemID{1}}

	log.fail = errors.New("disk on fire")
	if _, err := w.Advance(40, []*Element{child}); !errors.Is(err, ErrArchiveRead) || !errors.Is(err, log.fail) {
		t.Fatalf("advance over a failing log = %v, want ErrArchiveRead wrapping the read error", err)
	}
	log.fail = nil
	if got := flat(t, w); !reflect.DeepEqual(got, before) {
		t.Fatalf("a failed advance changed the window:\n got %+v\nwant %+v", got, before)
	}

	// Frame 1 (element 2) where frame 0 (element 1) belongs.
	good := append([]byte(nil), log.data...)
	n := len(good) - int(w.archive.Frames[0])
	copy(log.data, good[w.archive.Frames[0]:])
	log.data = log.data[:n]
	w.archive.Frames[0] = int64(n)
	if _, err := w.Advance(40, []*Element{child}); !errors.Is(err, ErrArchiveRead) {
		t.Fatalf("advance over a log holding another element = %v, want ErrArchiveRead", err)
	}
	log.data, w.archive.Frames[0] = good, int64(len(good)-n)

	cs, err := w.Advance(40, []*Element{child})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Inserted) != 2 || cs.Inserted[1].ID != 1 || cs.Inserted[1].Text != old.Text {
		t.Fatalf("the retried advance inserted %v, want 3 and the resurrected 1", cs.Inserted)
	}
}
