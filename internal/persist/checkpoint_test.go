package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

func testCheckpoint() *Checkpoint {
	e0 := &stream.Element{
		ID: 5, TS: 20,
		Doc:    textproc.NewDocument([]textproc.WordID{2}),
		Topics: topicmodel.TopicVec{Topics: []int32{0}, Probs: []float64{1}},
		Text:   "archived post",
	}
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
	ck := &Checkpoint{
		Name:      "feed",
		ModelHash: 0xfeedbeef,
		OpSeq:     42,
		LastTime:  170,
		Core: core.State{
			Window: stream.WindowState{
				Now:    180,
				Window: []*stream.Element{e1, e2},
				Active: []stream.ActiveRef{{ID: 1, LastRef: 160}, {ID: 2, LastRef: 160}},
			},
			Lists: [][]core.Tuple{
				{{ID: 1, Score: 0.9, LastRef: 160}, {ID: 2, Score: 0.4, LastRef: 160}},
				{{ID: 2, Score: 0.7, LastRef: 160}},
			},
			Stats: core.Stats{ElementsIngested: 2, Buckets: 3, ListUpserts: 5, ListDeletes: 1},
		},
		Pending: []PostRec{{ID: 3, Time: 175, Text: "buffered", Refs: []int64{2}}},
	}
	ck.Core.Window.Archive.Append(e0)
	return ck
}

// loadFlat is LoadCheckpoint with the archive read back into memory
// (stream.Archive.Materialize) and the log closed: the form a checkpoint
// is written from, so comparing the two compares every record and text
// byte for byte.
func loadFlat(t *testing.T, dir string) (*Checkpoint, error) {
	t.Helper()
	ck, err := LoadCheckpoint(dir)
	if err != nil || ck == nil {
		return ck, err
	}
	win := &ck.Core.Window
	arch, err := win.Archive.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Log != nil {
		if err := ck.Log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	win.Archive, win.ArchivedIDs, win.ArchivedMaxTS, ck.Log = arch, nil, 0, nil
	return ck, nil
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testCheckpoint()
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadFlat(t, dir)
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
	got, err := loadFlat(t, dir)
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
		win.Window = append(win.Window, e)
		win.Active = append(win.Active, stream.ActiveRef{ID: id, LastRef: e.TS})
	}
	win.Now += stream.Time(extra)
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
	got, err := loadFlat(t, dir)
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
		got, err := loadFlat(t, dir)
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
		if got, err = loadFlat(t, dir); err != nil || !reflect.DeepEqual(got, niu) {
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
	got, err := loadFlat(t, dir)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("load after healing a torn head: %v", err)
	}
}

// Every element comes back bit for bit through its element-log frame,
// whether archived — framed from its record — or in the window — encoded
// from the element; and the archive read back holds exactly the records
// and texts it was written from.
func TestElementFrameRoundTrip(t *testing.T) {
	elems := testutil.EdgeElements(rand.New(rand.NewSource(3)), 200)
	win := &stream.WindowState{Window: elems[len(elems)/2:]}
	for _, e := range elems[:len(elems)/2] {
		win.Archive.Append(e)
	}
	data, _, err := encodeFrames(win, 0)
	if err != nil {
		t.Fatal(err)
	}
	arch, window := scanFlat(t, data, logLen(win), uint64(len(win.Window)))
	if !reflect.DeepEqual(arch, win.Archive) {
		t.Fatal("the archive read back differs from the one written")
	}
	for i, e := range win.Window {
		testutil.SameElement(t, window[i], e)
	}
}

// scanFlat scans a log of count frames, the last inWindow the window
// queue, from memory and reads the archived elements back through it.
func scanFlat(t *testing.T, data []byte, count, inWindow uint64) (stream.Archive, []*stream.Element) {
	t.Helper()
	s, err := scanElements(bytes.NewReader(data), logPrefix{count: count, bytes: int64(len(data))}, inWindow)
	if err != nil {
		t.Fatal(err)
	}
	logged := stream.Archive{Count: int(count - inWindow), Log: &ElementLog{r: bytes.NewReader(data)}, Frames: s.ends}
	arch, err := logged.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return arch, s.window
}

// The largest element a frame carries — a text filling the payload limit
// beside four topics and a reference — round-trips archived and in the
// window; one byte more is refused when the frame is written.
func TestElementFrameMaximalText(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two 64 MiB frames")
	}
	e := &stream.Element{ID: 9, TS: 9,
		Doc:    textproc.NewDocument([]textproc.WordID{1, 2, 2}),
		Topics: topicmodel.TopicVec{Topics: []int32{0, 1, 2, 3}, Probs: []float64{0.4, 0.3, 0.2, 0.1}},
		Refs:   []stream.ElemID{8},
	}
	e.Text = strings.Repeat("x", maxRecordSize-stream.RecordSize(e))
	for _, archived := range []bool{true, false} {
		win := &stream.WindowState{Window: []*stream.Element{e}}
		if archived {
			win.Archive.Append(e)
			win.Window = nil
		}
		data, _, err := encodeFrames(win, 0)
		if err != nil {
			t.Fatal(err)
		}
		arch, window := scanFlat(t, data, 1, uint64(len(win.Window)))
		if archived {
			if !reflect.DeepEqual(arch, win.Archive) {
				t.Fatal("the maximal archived element does not round-trip")
			}
		} else {
			testutil.SameElement(t, window[0], e)
		}
	}
	e.Text += "x"
	if _, _, err := encodeFrames(&stream.WindowState{Window: []*stream.Element{e}}, 0); err == nil {
		t.Fatal("a frame one byte over the limit was written")
	}
}

// An archived element reads back through the element log only as the
// frame it was written as: a flipped bit or a cut log is ErrCorrupt, as is
// a read whose bounds are not one frame's, and ksir_element_log_reads_total
// counts each read by its outcome.
func TestElementLogReadsCheckFrames(t *testing.T) {
	dir := t.TempDir()
	want := grown(4)
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Log.Close()
	arch := ck.Core.Window.Archive
	if arch.Len() != 1 || len(arch.Frames) != 1+len(want.Core.Window.Window) || !reflect.DeepEqual(ck.Core.Window.ArchivedIDs, []stream.ElemID{5}) || ck.Core.Window.ArchivedMaxTS != 20 {
		t.Fatalf("loaded archive of %d elements, %d frames, IDs %v, latest at %d", arch.Len(), len(arch.Frames), ck.Core.Window.ArchivedIDs, ck.Core.Window.ArchivedMaxTS)
	}
	okReads, errReads := obsLogReads.With("ok").Value(), obsLogReads.With("error").Value()
	counted := func(what string, ok, bad uint64) {
		t.Helper()
		if gotOK, gotBad := obsLogReads.With("ok").Value()-okReads, obsLogReads.With("error").Value()-errReads; gotOK != ok || gotBad != bad {
			t.Errorf("%s: counted %d ok and %d failed reads, want %d and %d", what, gotOK, gotBad, ok, bad)
		}
	}
	rec, text, err := arch.Record(0)
	if err != nil || !bytes.Equal(rec, want.Core.Window.Archive.Records) || text != want.Core.Window.Archive.Texts[0] {
		t.Fatalf("archived element read back as %x %q, %v", rec, text, err)
	}
	counted("a clean read", 1, 0)

	path := filepath.Join(dir, ElementsFile)
	clean := readFile(t, dir, ElementsFile)
	for name, damage := range map[string]func([]byte) []byte{
		"bit flip": func(log []byte) []byte { log[12] ^= 0x01; return log },
		"cut":      func(log []byte) []byte { return log[:arch.Frames[0]-1] },
	} {
		if err := os.WriteFile(path, damage(bytes.Clone(clean)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := arch.Record(0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: read = %v, want ErrCorrupt", name, err)
		}
	}
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Log.ReadFrame(0, arch.Frames[1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a read across two frames = %v, want ErrCorrupt", err)
	}
	counted("two damaged logs and a misaligned read", 1, 3)
}

// A checkpoint that falls back to the .bak's shorter prefix over a live
// archive reading its elements from this directory's log keeps the frames
// the archive adopted where they are: it checks them and appends after
// them, so a write that fails then leaves every one of them readable, and
// the retry writes the same log an undisturbed checkpoint would.
func TestTornHeadCheckpointKeepsAdoptedFrames(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, grown(4)); err != nil {
		t.Fatal(err)
	}
	// The live archive: every frame of the head adopted, the window
	// elements' too, as after a checkpoint of a running stream.
	loaded, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Log.Close()
	live := grown(6)
	live.Core.Window.Archive = loaded.Core.Window.Archive
	adopted := live.Core.Window.Archive.Frames
	before := readFile(t, dir, ElementsFile)
	bak := readFile(t, dir, CheckpointBak)
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	writeAt = func(*os.File, []byte, int64) (int, error) { return 0, errors.New("no space left on device") }
	_, err = WriteCheckpointFrames(dir, live)
	writeAt = (*os.File).WriteAt
	if err == nil {
		t.Fatal("a checkpoint whose log write failed succeeded")
	}
	if after := readFile(t, dir, ElementsFile); !bytes.HasPrefix(after, before[:adopted[len(adopted)-1]]) {
		t.Fatalf("the failed checkpoint cut the log to %d bytes, below the %d its archive reads", len(after), adopted[len(adopted)-1])
	}
	start := int64(0)
	for i, end := range adopted {
		if _, err := loaded.Log.ReadFrame(start, end); err != nil {
			t.Fatalf("adopted frame %d is lost after the failed checkpoint: %v", i, err)
		}
		start = end
	}

	app, err := WriteCheckpointFrames(dir, live)
	if err != nil {
		t.Fatal(err)
	}
	if app.First != len(adopted) || app.First+len(app.Ends) != int(logLen(&live.Core.Window)) {
		t.Errorf("the retry appended %d frames from arrival %d, want the %d after the %d adopted", len(app.Ends), app.First, int(logLen(&live.Core.Window))-len(adopted), len(adopted))
	}
	if !bytes.Equal(readFile(t, dir, CheckpointBak), bak) {
		t.Error("the torn head was rotated over the loadable .bak")
	}
	want := grown(6)
	ref := t.TempDir()
	if err := WriteCheckpoint(ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, dir, ElementsFile), readFile(t, ref, ElementsFile)) {
		t.Error("the retried checkpoint's log differs from an undisturbed one's")
	}
	got, err := loadFlat(t, dir)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("load after the retried checkpoint: %v", err)
	}
}
