package ksir

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/social-streams/ksir/internal/metrics"
	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/stream"
)

// failingLog is an element log whose every read fails.
type failingLog struct{}

func (failingLog) ReadFrame(start, end int64) ([]byte, error) {
	return nil, errors.New("element log unreadable")
}

// archivedStream builds a durable stream and a memory-only mirror fed and
// flushed alike, checkpoints the stream so its archive lives in its
// element log, and returns an archived, inactive post with where its frame
// sits in the log.
func archivedStream(t *testing.T, m *Model, dir string, n int) (h *Hub, hs *Stream, mirror *Stream, posts []Post, id int64, start, end int64) {
	t.Helper()
	h = openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 1})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror = mirrorStream(t, m)
	posts = genPosts(n, 47)
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	last := posts[len(posts)-1].Time
	if err := hs.Flush(last); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Flush(last); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng := hs.stp.Load().engine
	arch := eng.ExportState().Window.Archive
	// genPosts numbers posts in arrival order, so post i is arrival i-1.
	for id = 1; id <= int64(arch.Len()); id++ {
		if _, active := eng.Window().Get(stream.ElemID(id)); !active {
			break
		}
	}
	if id > int64(min(arch.Len(), len(arch.Frames))) {
		t.Fatalf("no post of %d is archived, inactive and in the element log", arch.Len())
	}
	if id > 1 {
		start = arch.Frames[id-2]
	}
	return h, hs, mirror, posts, id, start, arch.Frames[id-1]
}

// A bucket whose post references an archived element the element log
// cannot give back — its frame cut off or a bit flipped, or a log whose
// reads fail — fails the Add that completes it with ErrPersist, and the
// stream keeps exactly what its WAL holds: the bucket's posts, already
// accepted and logged, wait in the pending buffer (a resent one is still a
// duplicate), the engine equals a twin's that has them pending too, and a
// crash copy of the directory recovers to that same state. Once the log
// reads again, the retried Add ingests the bucket on the live stream, the
// recovered one and the twin alike.
func TestResurrectionReadFaultKeepsBucketPending(t *testing.T) {
	m := trainTestModel(t)
	for _, fault := range []string{"cut frame", "bit flip", "failing reader"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			h, hs, mirror, posts, id, start, end := archivedStream(t, m, dir, 120)
			defer h.CloseAll()
			path := filepath.Join(dir, "feed", persist.ElementsFile)
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch fault {
			case "cut frame":
				err = os.Truncate(path, start+(end-start)/2)
			case "bit flip":
				damaged := bytes.Clone(clean)
				damaged[end-1] ^= 0x40
				err = os.WriteFile(path, damaged, 0o644)
			case "failing reader":
				err = hs.stp.Load().engine.AdoptLog(failingLog{}, 0, nil)
			}
			if err != nil {
				t.Fatal(err)
			}

			_, failedReads := elementLogReads(t)
			last := posts[len(posts)-1].Time
			bad := []Post{
				{ID: 100001, Time: last + 1, Text: "goal derby keeper", Refs: []int64{id}},
				{ID: 100002, Time: last + 121, Text: "dunk court"},
			}
			for _, add := range []func(Post) error{hs.Add, mirror.Add} {
				if err := add(bad[0]); err != nil {
					t.Fatal(err)
				}
			}
			if err := hs.Add(bad[1]); !errors.Is(err, ErrPersist) {
				t.Fatalf("Add completing a bucket that resurrects post %d = %v, want ErrPersist", id, err)
			}
			if _, failed := elementLogReads(t); fault != "failing reader" && failed != failedReads+1 {
				t.Errorf("ksir_element_log_reads_total{result=\"error\"} went from %g to %g, want one more", failedReads, failed)
			}
			if err := hs.Add(bad[0]); !errors.Is(err, ErrBadPost) {
				t.Fatalf("resending post %d of the failed bucket = %v, want a duplicate's ErrBadPost", bad[0].ID, err)
			}

			if err := os.WriteFile(path, clean, 0o644); err != nil {
				t.Fatal(err)
			}
			if fault == "failing reader" {
				if err := hs.stp.Load().engine.AdoptLog(hs.pers.log, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			sameStreamState(t, "after the fault", hs.Stream(), mirror)

			// Crash: recover a copy of the directory, the live hub still open.
			crashDir := t.TempDir()
			copyStreamTree(t, dir, crashDir)
			h2 := openTestHub(t, crashDir, m, PersistOptions{CheckpointEvery: 1})
			defer h2.CloseAll()
			hs2, err := h2.Get("feed")
			if err != nil {
				t.Fatal(err)
			}
			if err := hs2.Add(bad[0]); !errors.Is(err, ErrBadPost) {
				t.Fatalf("resending post %d to the recovered stream = %v, want a duplicate's ErrBadPost", bad[0].ID, err)
			}
			sameStreamState(t, "recovered after the fault", hs2.Stream(), mirror)

			for _, add := range []func(Post) error{hs.Add, hs2.Add, mirror.Add} {
				if err := add(bad[1]); err != nil {
					t.Fatalf("retrying post %d: %v", bad[1].ID, err)
				}
			}
			for _, st := range []*Stream{hs.Stream(), hs2.Stream()} {
				if _, active := st.stp.Load().engine.Window().Get(stream.ElemID(id)); !active {
					t.Fatalf("post %d was not resurrected by the retried bucket", id)
				}
			}
			sameStreamState(t, "live after the retry", hs.Stream(), mirror)
			sameStreamState(t, "recovered after the retry", hs2.Stream(), mirror)
		})
	}
}

// sameStreamState fails the test unless got's engine exports the same
// bytes as want's and both hold the same posts pending.
func sameStreamState(t *testing.T, what string, got, want *Stream) {
	t.Helper()
	if !bytes.Equal(exportGob(t, got), exportGob(t, want)) {
		t.Fatalf("%s: the stream's engine state differs from its twin's", what)
	}
	ids := func(st *Stream) []stream.ElemID {
		var ids []stream.ElemID
		for _, e := range st.stp.Load().pending {
			ids = append(ids, e.ID)
		}
		return ids
	}
	if g, w := ids(got), ids(want); !slices.Equal(g, w) {
		t.Fatalf("%s: pending posts %v, want %v", what, g, w)
	}
}

// A live stream whose current checkpoint head is torn checkpoints from the
// .bak's shorter log prefix. The frames past it are ones its archive now
// reads back, so the checkpoint reads them back to check them and appends
// after them: the log keeps every byte it had at the same offset, and an
// element archived in that stretch still resurrects afterwards, exactly as
// in a memory-only twin.
func TestTornHeadCheckpointKeepsFramesInPlace(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 1 << 30})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(220, 53)
	feed := func(ps []Post) {
		for _, p := range ps {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
			if err := mirror.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// logged is how many arrivals the element log holds after a checkpoint.
	logged := func() int64 {
		if _, err := hs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return int64(len(hs.stp.Load().engine.ExportState().Window.Archive.Frames))
	}
	feed(posts[:60])
	bak := logged() // the .bak-to-be's prefix
	feed(posts[60:120])
	torn := logged() // the prefix of the head about to tear
	feed(posts[120:])
	// A post of the stretch only the torn head covers that has left the
	// window and is inactive: the archive holds it as its frame alone.
	// genPosts numbers posts in arrival order, so post i is arrival i-1.
	eng := hs.stp.Load().engine
	id := bak + 1
	for ; id <= torn; id++ {
		if _, active := eng.Window().Get(stream.ElemID(id)); !active {
			break
		}
	}
	if arch := eng.ExportState().Window.Archive; id > torn || int64(arch.Len()) < id {
		t.Fatalf("no archived, inactive post among %d..%d (archive %d)", bak+1, torn, arch.Len())
	}

	sdir := filepath.Join(dir, "feed")
	before := readFile(t, sdir, persist.ElementsFile)
	reads, _ := elementLogReads(t)
	if err := os.WriteFile(filepath.Join(sdir, persist.CheckpointFile), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over a torn head: %v", err)
	}
	if after := readFile(t, sdir, persist.ElementsFile); !bytes.HasPrefix(after, before) {
		t.Fatalf("the checkpoint from the .bak's prefix changed the log's first %d bytes", len(before))
	}
	if now, _ := elementLogReads(t); now <= reads {
		t.Fatal("the checkpoint from the .bak's prefix read nothing back from the element log")
	}

	last := posts[len(posts)-1].Time
	feed([]Post{{ID: 100001, Time: last + 1, Text: "goal derby", Refs: []int64{id}}})
	if err := hs.Flush(last + 61); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Flush(last + 61); err != nil {
		t.Fatal(err)
	}
	if _, active := hs.stp.Load().engine.Window().Get(stream.ElemID(id)); !active {
		t.Fatalf("post %d was not resurrected", id)
	}
	if got, want := exportGob(t, hs.Stream()), exportGob(t, mirror); !bytes.Equal(got, want) {
		t.Fatal("after the fallback checkpoint the stream diverges from its twin")
	}
}

// readFile reads dir/name, failing the test on error.
func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// elementLogReads reads the process-wide element-log read counters the way
// a scrape would.
func elementLogReads(t *testing.T) (ok, failed float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.Default().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, `ksir_element_log_reads_total{result="ok"} %g`, &v); err == nil {
			ok = v
		}
		if _, err := fmt.Sscanf(line, `ksir_element_log_reads_total{result="error"} %g`, &v); err == nil {
			failed = v
		}
	}
	return ok, failed
}
