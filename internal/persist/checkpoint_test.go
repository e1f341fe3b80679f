package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

func testCheckpoint() *Checkpoint {
	e1 := &stream.Element{
		ID: 1, TS: 100,
		Doc:    textproc.NewDocument([]textproc.WordID{0, 1, 0}),
		Topics: topicmodel.TopicVec{Topics: []int32{0, 1}, Probs: []float64{0.75, 0.25}},
		Text:   "first post",
	}
	e2 := &stream.Element{
		ID: 2, TS: 160,
		Doc:    textproc.NewDocument([]textproc.WordID{1}),
		Topics: topicmodel.TopicVec{Topics: []int32{1}, Probs: []float64{1}},
		Refs:   []stream.ElemID{1},
		Text:   "second post",
	}
	return &Checkpoint{
		Name:      "feed",
		ModelHash: 0xfeedbeef,
		OpSeq:     42,
		LastTime:  170,
		Core: core.State{
			Window: stream.WindowState{
				Now:      180,
				Log:      []*stream.Element{e1, e2},
				InWindow: 2,
				Active:   []stream.ActiveRef{{ID: 1, LastRef: 160}, {ID: 2, LastRef: 160}},
			},
			Lists: [][]rankedlist.Item{
				{{ID: 1, Score: 0.9, LastRef: 160}, {ID: 2, Score: 0.4, LastRef: 160}},
				{{ID: 2, Score: 0.7, LastRef: 160}},
			},
			Stats: core.Stats{ElementsIngested: 2, Buckets: 3, ListUpserts: 5, ListDeletes: 1},
		},
		Pending: []PostRec{{ID: 3, Time: 175, Text: "buffered", Refs: []int64{2}}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testCheckpoint()
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint round trip diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadCheckpointAbsent(t *testing.T) {
	ck, err := LoadCheckpoint(t.TempDir())
	if ck != nil || err != nil {
		t.Errorf("absent checkpoint = %v, %v; want nil, nil", ck, err)
	}
}

// A corrupt current checkpoint falls back to the rotated .bak — the crash
// window between writing the new file and truncating the WAL.
func TestLoadCheckpointFallsBackToBak(t *testing.T) {
	dir := t.TempDir()
	old := testCheckpoint()
	old.OpSeq = 10
	if err := WriteCheckpoint(dir, old); err != nil {
		t.Fatal(err)
	}
	niu := testCheckpoint()
	niu.OpSeq = 20
	if err := WriteCheckpoint(dir, niu); err != nil {
		t.Fatal(err)
	}
	// Corrupt the current file's payload.
	cur := filepath.Join(dir, CheckpointFile)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(cur, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.OpSeq != 10 {
		t.Errorf("fallback loaded OpSeq %d, want the .bak's 10", got.OpSeq)
	}
	// With no .bak at all, corruption is surfaced, not masked.
	if err := os.Remove(filepath.Join(dir, CheckpointBak)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt-only load = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, CheckpointFile)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	// A version from the future, and the retired gob format's.
	for _, ver := range []byte{0x63, 1} {
		data[8] = ver // version field
		if err := os.WriteFile(cur, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(dir); !errors.Is(err, ErrVersion) {
			t.Errorf("version-%d load = %v, want ErrVersion", ver, err)
		}
		if err := WriteCheckpoint(dir, grown(1)); !errors.Is(err, ErrVersion) {
			t.Errorf("checkpoint over a version-%d head = %v, want ErrVersion", ver, err)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Meta{Name: "feed", ModelHash: 7, WindowNs: 1e9, BucketNs: 1e8, Lambda: 0.25, Eta: 20}
	if err := WriteMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("meta round trip: got %+v want %+v", got, want)
	}
	// Version mismatch is typed.
	path := filepath.Join(dir, MetaFile)
	data, _ := os.ReadFile(path)
	data[8] = 0x63
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMeta(dir); !errors.Is(err, ErrVersion) {
		t.Errorf("meta version error = %v, want ErrVersion", err)
	}
}

// grown returns testCheckpoint with extra elements appended to its log, all
// in the window — the same stream some buckets later.
func grown(extra int) *Checkpoint {
	ck := testCheckpoint()
	win := &ck.Core.Window
	for i := 0; i < extra; i++ {
		id := stream.ElemID(10 + i)
		e := &stream.Element{
			ID: id, TS: win.Now + stream.Time(i+1),
			Doc:    textproc.NewDocument([]textproc.WordID{textproc.WordID(i % 3), 1}),
			Topics: topicmodel.TopicVec{Topics: []int32{0}, Probs: []float64{1}},
			Refs:   []stream.ElemID{id - 1, 1},
			Text:   fmt.Sprintf("later post %d", i),
		}
		win.Log = append(win.Log, e)
		win.Active = append(win.Active, stream.ActiveRef{ID: id, LastRef: e.TS})
	}
	win.Now += stream.Time(extra)
	win.InWindow += extra
	ck.OpSeq += uint64(extra)
	return ck
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A checkpoint writes each element once: the log only grows by the new
// arrivals, and the bytes of the elements already there never change.
func TestCheckpointAppendsOnlyNewElements(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	first := readFile(t, dir, ElementsFile)
	want := grown(5)
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	second := readFile(t, dir, ElementsFile)
	if len(second) <= len(first) || !bytes.Equal(second[:len(first)], first) {
		t.Fatalf("log went from %d to %d bytes without keeping its prefix", len(first), len(second))
	}
	// A checkpoint with no new arrival leaves the log alone.
	want.OpSeq++
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	if third := readFile(t, dir, ElementsFile); !bytes.Equal(third, second) {
		t.Fatalf("a checkpoint without new elements changed the log (%d → %d bytes)", len(second), len(third))
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint over an extended log diverges:\n got %+v\nwant %+v", got, want)
	}
	// The log cannot shrink or change hands: that is not this stream.
	if err := WriteCheckpoint(dir, testCheckpoint()); err == nil {
		t.Error("a checkpoint with a shorter log than the head on disk was accepted")
	}
	other := grown(5)
	other.Name = "other"
	if err := WriteCheckpoint(dir, other); err == nil {
		t.Error("a checkpoint of another stream was accepted over this one's log")
	}
}

// The log append torn at every byte: the old head still names only its own
// prefix, so whatever the crash left after it is invisible to a load, and
// the next checkpoint cuts it off before appending — the file it leaves is
// byte for byte the one an undisturbed checkpoint writes.
func TestElementLogTornAppendEveryByte(t *testing.T) {
	src := t.TempDir()
	old, niu := testCheckpoint(), grown(2)
	if err := WriteCheckpoint(src, old); err != nil {
		t.Fatal(err)
	}
	oldHead, oldLog := readFile(t, src, CheckpointFile), readFile(t, src, ElementsFile)
	if err := WriteCheckpoint(src, niu); err != nil {
		t.Fatal(err)
	}
	newLog := readFile(t, src, ElementsFile)
	for cut := len(oldLog); cut <= len(newLog); cut++ {
		dir := t.TempDir()
		for name, data := range map[string][]byte{CheckpointFile: oldHead, ElementsFile: newLog[:cut]} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("cut %d: the torn append leaked into the loaded checkpoint", cut)
		}
		if err := WriteCheckpoint(dir, niu); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if log := readFile(t, dir, ElementsFile); !bytes.Equal(log, newLog) {
			t.Fatalf("cut %d: the next checkpoint left a log of %d bytes, want the %d of an undisturbed one", cut, len(log), len(newLog))
		}
		if got, err = LoadCheckpoint(dir); err != nil || !reflect.DeepEqual(got, niu) {
			t.Fatalf("cut %d: reload after the next checkpoint: %v", cut, err)
		}
	}
}

// A head names its log prefix exactly; a log that cannot honour it is
// corruption to surface, not a crash shape to paper over with the .bak.
func TestLoadCheckpointRejectsDamagedLog(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		if err := WriteCheckpoint(dir, testCheckpoint()); err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpoint(dir, grown(3)); err != nil { // leaves a loadable .bak behind
			t.Fatal(err)
		}
		return dir
	}
	damage := map[string]func(log []byte) []byte{
		"truncated": func(log []byte) []byte { return log[:len(log)-1] },
		"bit flip":  func(log []byte) []byte { log[len(log)/2] ^= 0x10; return log },
		"missing":   func([]byte) []byte { return nil },
	}
	for name, fn := range damage {
		dir := build(t)
		path := filepath.Join(dir, ElementsFile)
		if log := fn(readFile(t, dir, ElementsFile)); log == nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s log: load = %v, want ErrCorrupt", name, err)
		}
	}
}

// A torn current head must not cost the .bak that still loads: the next
// checkpoint overwrites the torn file in place instead of rotating it.
func TestWriteCheckpointKeepsBakOverTornHead(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, grown(2)); err != nil {
		t.Fatal(err)
	}
	bak := readFile(t, dir, CheckpointBak)
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := grown(6)
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, dir, CheckpointBak), bak) {
		t.Error("the torn head was rotated over the loadable .bak")
	}
	got, err := LoadCheckpoint(dir)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("load after healing a torn head: %v", err)
	}
}
