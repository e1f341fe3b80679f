package ksir

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/social-streams/ksir/internal/persist"
)

// readStreamDir returns the files of one stream directory by name.
func readStreamDir(t *testing.T, sdir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(sdir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// withFile returns a copy of files with name set to data (nil removes it).
func withFile(files map[string][]byte, name string, data []byte) map[string][]byte {
	out := make(map[string][]byte, len(files)+1)
	for k, v := range files {
		out[k] = v
	}
	if data == nil {
		delete(out, name)
	} else {
		out[name] = data
	}
	return out
}

// logIDs walks the frames of an element log (u32 length, u32 CRC, payload
// starting with the element ID) and returns the IDs in file order. Bytes
// that do not form whole frames fail the test: after a completed
// checkpoint the log holds nothing else.
func logIDs(t *testing.T, log []byte) []int64 {
	t.Helper()
	var ids []int64
	for off := 0; off < len(log); {
		if len(log)-off < 16 {
			t.Fatalf("element log: %d stray bytes at offset %d", len(log)-off, off)
		}
		n := int(binary.LittleEndian.Uint32(log[off:]))
		if n < 8 || off+8+n > len(log) {
			t.Fatalf("element log: frame at %d claims %d bytes of %d", off, n, len(log)-off-8)
		}
		ids = append(ids, int64(binary.LittleEndian.Uint64(log[off+8:])))
		off += 8 + n
	}
	return ids
}

// The checkpoint protocol's crash matrix. A checkpoint is a sequence of
// steps — log append, log fsync, head tmp, .bak rotation, rename, WAL
// reset — and a crash may fall inside or between any of them. Every image
// such a crash can leave must recover to exactly the acknowledged stream
// (same posts, bit-identical scores, same bucket), and the checkpoint
// taken after recovery must leave a log holding each element exactly once.
func TestCheckpointCrashEveryStep(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 100000})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(80, 61)
	add := func(ps []Post) {
		t.Helper()
		for _, p := range ps {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
			if err := mirror.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func() {
		t.Helper()
		if _, err := hs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Two checkpoints of history, so the interrupted third finds both a
	// current head and a .bak, then the tail it is to fold in.
	add(posts[:36])
	checkpoint()
	add(posts[36:68])
	checkpoint()
	add(posts[68:])
	sdir := filepath.Join(dir, "feed")
	before := readStreamDir(t, sdir) // head 2, .bak 1, the log up to head 2, the WAL tail
	checkpoint()
	after := readStreamDir(t, sdir) // head 3, .bak 2, the longer log, an empty WAL
	// Crash image source: the hub is abandoned un-closed.

	want := persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) })
	ingested := int(mirror.Stats().Elements) // posts past the last bucket boundary are pending, not in the log
	oldLog, newLog, newHead := before[persist.ElementsFile], after[persist.ElementsFile], after[persist.CheckpointFile]
	if len(newLog) <= len(oldLog) || len(after[persist.WALFile]) != 0 || len(before[persist.WALFile]) == 0 {
		t.Fatalf("fixture: log %d → %d bytes, WAL %d → %d bytes", len(oldLog), len(newLog), len(before[persist.WALFile]), len(after[persist.WALFile]))
	}

	scratch := t.TempDir()
	images := 0
	// recoverImage opens the image and demands the exact stream, takes the
	// next checkpoint (CloseAll's), checks that the log then holds every
	// ingested element once and nothing else, and recovers again from what
	// that checkpoint wrote.
	recoverImage := func(name string, files map[string][]byte) {
		t.Helper()
		images++
		root := filepath.Join(scratch, fmt.Sprintf("img%d", images))
		cdir := filepath.Join(root, "feed")
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(root)
		for fn, data := range files {
			if err := os.WriteFile(filepath.Join(cdir, fn), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			h2 := openTestHub(t, root, m, PersistOptions{CheckpointEvery: 100000})
			hs2, err := h2.Get("feed")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameResults(t, fmt.Sprintf("%s (recovery %d)", name, round),
				persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }), want)
			if err := h2.CloseAll(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			log, err := os.ReadFile(filepath.Join(cdir, persist.ElementsFile))
			if err != nil {
				t.Fatal(err)
			}
			ids := logIDs(t, log)
			if len(ids) != ingested {
				t.Fatalf("%s: log holds %d elements after the next checkpoint, want %d", name, len(ids), ingested)
			}
			for i, id := range ids {
				if id != posts[i].ID {
					t.Fatalf("%s: log entry %d is element %d, want %d", name, i, id, posts[i].ID)
				}
			}
		}
	}

	// Steps 1–2, log append and fsync: no head names the new bytes, so the
	// image is the old checkpoint plus garbage. Cut at every frame boundary
	// and at a stride of bytes inside the frames (the persist package's
	// own test cuts the append at every byte, without a hub on top).
	boundary := map[int]bool{len(oldLog): true}
	for off := len(oldLog); off < len(newLog); {
		off += 8 + int(binary.LittleEndian.Uint32(newLog[off:]))
		boundary[off] = true
	}
	for cut := len(oldLog); cut <= len(newLog); cut++ {
		if boundary[cut] || cut%29 == 0 {
			recoverImage(fmt.Sprintf("log append cut at byte %d", cut), withFile(before, persist.ElementsFile, newLog[:cut]))
		}
	}
	// Step 3, head tmp: the loader never opens it, so a stride of cuts is
	// as good as every byte.
	appended := withFile(before, persist.ElementsFile, newLog)
	for cut := 0; cut < len(newHead); cut += 197 {
		recoverImage(fmt.Sprintf("head tmp cut at byte %d", cut), withFile(appended, "checkpoint.tmp", newHead[:cut]))
	}
	tmpDone := withFile(appended, "checkpoint.tmp", newHead)
	recoverImage("head tmp complete", tmpDone)
	// Step 4, the current head rotated to .bak, the rename not yet done:
	// no current head, and a .bak naming a shorter prefix of a longer log.
	rotated := withFile(withFile(tmpDone, persist.CheckpointBak, before[persist.CheckpointFile]), persist.CheckpointFile, nil)
	recoverImage("rotated, not renamed", rotated)
	// Step 5, renamed, WAL not reset: every WAL record is at or below the
	// new head's watermark.
	renamed := withFile(withFile(rotated, persist.CheckpointFile, newHead), "checkpoint.tmp", nil)
	recoverImage("renamed, WAL not reset", renamed)
	// Step 6, complete.
	recoverImage("complete", after)

	// A torn current head behind an intact .bak — with the WAL not yet
	// reset, the only moment the .bak's suffix is still on disk: the .bak
	// names a shorter prefix than the log holds.
	torn := append([]byte(nil), newHead...)
	torn[len(torn)/2] ^= 0xff
	recoverImage("current head corrupt", withFile(renamed, persist.CheckpointFile, torn))
	recoverImage("current head truncated", withFile(renamed, persist.CheckpointFile, newHead[:len(newHead)/3]))
}
