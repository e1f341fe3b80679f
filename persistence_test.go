package ksir

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"

	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/metrics"
	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/stream"
)

// persistOpts are the stream options used across the recovery suite:
// short buckets so a modest post count crosses many boundaries.
func persistOpts() Options {
	lambda := 0.4
	return Options{Window: 300 * time.Second, Bucket: 60 * time.Second, Lambda: &lambda, Eta: 5}
}

// genPosts builds n posts over the test model's vocabulary with reference
// chains, timestamps advancing so the stream crosses bucket and window
// boundaries (expiry and resurrection both occur).
func genPosts(n int, seed int64) []Post {
	words := []string{"goal", "striker", "keeper", "league", "derby", "penalty",
		"dunk", "rebound", "playoffs", "court", "buzzer", "triple"}
	rng := rand.New(rand.NewSource(seed))
	posts := make([]Post, n)
	ts := int64(60)
	for i := range posts {
		ts += int64(rng.Intn(25))
		var text []byte
		for w := 0; w < 4+rng.Intn(4); w++ {
			if w > 0 {
				text = append(text, ' ')
			}
			text = append(text, words[rng.Intn(len(words))]...)
		}
		p := Post{ID: int64(i + 1), Time: ts, Text: string(text)}
		for r := 0; r < rng.Intn(3) && i > 0; r++ {
			p.Refs = append(p.Refs, int64(1+rng.Intn(i)))
		}
		posts[i] = p
	}
	return posts
}

// persistQueries issues a spread of queries against any query surface.
func persistQueries(t *testing.T, query func(Query) (Result, error)) []Result {
	t.Helper()
	var out []Result
	for _, alg := range []Algorithm{MTTD, MTTS, TopK} {
		for _, kw := range [][]string{{"goal", "striker"}, {"dunk", "rebound"}, {"derby", "court"}} {
			res, err := query(Query{K: 5, Keywords: kw, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
	}
	return out
}

// sameResults demands exact equality: identical top-k posts, active
// counts, bucket sequences, Evaluated counters and bit-identical scores.
// Scoring is fully deterministic (influence sums run in sorted child-ID
// order, set sums in sorted key order), so recovery equivalence is exact
// float equality, not a tolerance.
func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.Posts, w.Posts) {
			t.Fatalf("%s: query %d posts diverge:\n got %+v\nwant %+v", what, i, g.Posts, w.Posts)
		}
		if g.Bucket != w.Bucket || g.Active != w.Active || g.Evaluated != w.Evaluated {
			t.Fatalf("%s: query %d counters diverge: %+v vs %+v", what, i, g, w)
		}
		if g.Score != w.Score {
			t.Fatalf("%s: query %d scores diverge: %v vs %v", what, i, g.Score, w.Score)
		}
	}
}

// openTestHub opens a durable hub over dir with fast-test persistence
// settings (no fsync) and fails the test on error.
func openTestHub(t *testing.T, dir string, m *Model, po PersistOptions) *Hub {
	t.Helper()
	po.Fsync = FsyncNever
	h, err := OpenHub(dir, m, po)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// mirrorStream is the in-memory reference a recovered stream is compared
// against: a plain Stream fed the same accepted operations.
func mirrorStream(t *testing.T, m *Model) *Stream {
	t.Helper()
	st, err := New(m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// The crash-recovery equivalence contract: kill the process mid-ingest
// (simulated by abandoning the hub without any close or final
// checkpoint), reopen the directory, and the recovered stream answers
// every query with identical top-k posts and the same bucket sequence as
// an uninterrupted stream fed the same posts.
func TestCrashRecoveryEquivalence(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	for _, every := range []int64{1000, 3} { // never checkpoints vs checkpoints + WAL tail
		t.Run(fmt.Sprintf("checkpointEvery=%d", every), func(t *testing.T) {
			dir := filepath.Join(dir, fmt.Sprintf("every%d", every))
			h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: every})
			hs, err := h.Create("feed", m, persistOpts())
			if err != nil {
				t.Fatal(err)
			}
			mirror := mirrorStream(t, m)
			for _, p := range genPosts(250, 11) {
				if err := hs.Add(p); err != nil {
					t.Fatal(err)
				}
				if err := mirror.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			want := persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) })

			// Crash: no Close, no final checkpoint — reopen from disk.
			h2 := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: every})
			defer h2.CloseAll()
			hs2, err := h2.Get("feed")
			if err != nil {
				t.Fatal(err)
			}
			got := persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) })
			sameResults(t, "recovered", got, want)

			ms, rs := mirror.Stats(), hs2.Stats()
			if rs.Active != ms.Active || rs.Now != ms.Now || rs.Bucket != ms.Bucket || rs.Elements != ms.Elements {
				t.Fatalf("stats diverge: %+v vs %+v", rs, ms)
			}
			if every == 3 && rs.Persist.CheckpointBucket < 0 {
				t.Error("no automatic checkpoint was taken")
			}
			if !rs.Persist.Enabled {
				t.Error("recovered stream reports persistence disabled")
			}

			// The streams stay in lockstep through further identical
			// ingest — pending posts, bucket alignment and duplicate
			// tracking all survived.
			for _, p := range genPosts(60, 12) {
				p.ID += 10_000
				p.Time += mirror.Stats().Now + 600
				if err := hs2.Add(p); err != nil {
					t.Fatal(err)
				}
				if err := mirror.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			sameResults(t, "recovered+continued",
				persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
				persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
		})
	}
}

// Clean shutdown: Close takes a final checkpoint and truncates the WAL;
// reopening restores from the checkpoint alone.
func TestCleanCloseRecovery(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(120, 21)
	if n, err := hs.AddBatch(posts); err != nil || n != len(posts) {
		t.Fatalf("AddBatch = %d, %v", n, err)
	}
	if _, err := mirror.AddBatch(posts); err != nil {
		t.Fatal(err)
	}
	now := mirror.Stats().Now + 120
	if err := hs.Flush(now); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Flush(now); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "feed", "wal")
	if fi, err := os.Stat(wal); err != nil || fi.Size() != 0 {
		t.Errorf("WAL after clean close: %v bytes, err %v (want empty)", fi.Size(), err)
	}

	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "clean close",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
}

// Manifests written before the topic-shard pool was deleted carry a Shards
// field (non-zero under -shards N or WithShards). Reading one skips the
// field, and the stream reopens to byte-identical exported state.
func TestRetiredShardsManifestReopens(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	posts := genPosts(120, 21)
	if n, err := hs.AddBatch(posts); err != nil || n != len(posts) {
		t.Fatalf("AddBatch = %d, %v", n, err)
	}
	if err := hs.Flush(posts[len(posts)-1].Time + 120); err != nil {
		t.Fatal(err)
	}
	want := exportGob(t, hs.Stream())
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	sdir := filepath.Join(dir, "feed")
	meta, err := persist.ReadMeta(sdir)
	if err != nil {
		t.Fatal(err)
	}
	type legacyMeta struct {
		Name               string
		ModelHash          uint64
		WindowNs, BucketNs int64
		Lambda, Eta        float64
		Shards             int
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(legacyMeta{meta.Name, meta.ModelHash,
		meta.WindowNs, meta.BucketNs, meta.Lambda, meta.Eta, 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sdir, persist.MetaFile)
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same envelope: magic and version, then the payload's CRC-32C.
	legacy := binary.LittleEndian.AppendUint32(cur[:12:12],
		crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	legacy = append(legacy, payload.Bytes()...)
	if len(legacy) <= len(cur) {
		t.Fatalf("legacy manifest is %d bytes, current %d: the retired field was not encoded", len(legacy), len(cur))
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := persist.ReadMeta(sdir); err != nil || got != meta {
		t.Fatalf("ReadMeta of a legacy manifest = %+v, %v; want %+v", got, err, meta)
	}

	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	if got := exportGob(t, hs2.Stream()); !bytes.Equal(got, want) {
		t.Errorf("export after reopening under a legacy manifest differs (%d vs %d bytes)", len(got), len(want))
	}
}

// A torn write — the crash truncating the WAL's final record — recovers
// the longest valid prefix: every earlier post is there, the torn one is
// gone, and nothing panics.
func TestTornWALRecoversPrefix(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(80, 31)
	for _, p := range posts[:len(posts)-1] {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, "feed", "wal")
	prefix, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Add(posts[len(posts)-1]); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: drop the final bytes of the last record.
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, full[:prefix.Size()+7], 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "torn tail",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	// The torn post never made it; re-adding it must succeed, not be a
	// duplicate.
	if err := hs2.Add(posts[len(posts)-1]); err != nil {
		t.Errorf("re-adding the torn post: %v", err)
	}
}

// Group commit's crash matrix at the hub level: an AddBatch's records
// land as one multi-record WAL batch append; killing the log at every
// byte offset inside that batch's span must recover a stream identical to
// one fed exactly the longest committed record prefix — per-record
// atomicity survives batched durability.
func TestGroupCommitTornBatchEveryByte(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	posts := genPosts(30, 53)
	head, tail := posts[:24], posts[24:]
	for _, p := range head {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	pre := hs.Stats().Persist.WALBytes
	if n, err := hs.AddBatch(tail); err != nil || n != len(tail) {
		t.Fatalf("AddBatch: %d %v", n, err)
	}

	walPath := filepath.Join(dir, "feed", "wal")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries of the batch's records, walked from the frames
	// themselves (u32 length prefix + 4-byte CRC + payload).
	bounds := []int64{pre}
	for off := pre; off < int64(len(full)); {
		n := int64(binary.LittleEndian.Uint32(full[off:]))
		off += 8 + n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(tail)+1 || bounds[len(bounds)-1] != int64(len(full)) {
		t.Fatalf("frame walk found %d bounds over %d bytes, want %d records", len(bounds)-1, len(full), len(tail))
	}
	// Crash image: the hub is abandoned un-closed.

	// Reference results per committed-prefix length.
	q := Query{K: 5, Keywords: []string{"goal", "striker"}}
	refs := make([]Result, len(tail)+1)
	for k := 0; k <= len(tail); k++ {
		mirror := mirrorStream(t, m)
		for _, p := range posts[:len(head)+k] {
			if err := mirror.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := mirror.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		refs[k] = res
	}

	meta, err := os.ReadFile(filepath.Join(dir, "feed", "manifest"))
	metaName := "manifest"
	if err != nil {
		// The manifest file name is an internal detail; fall back to
		// copying every non-WAL file.
		metaName = ""
	}
	scratch := t.TempDir()
	for cut := pre; cut <= int64(len(full)); cut++ {
		cdir := filepath.Join(scratch, fmt.Sprintf("cut%d", cut), "feed")
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if metaName != "" {
			if err := os.WriteFile(filepath.Join(cdir, metaName), meta, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			ents, err := os.ReadDir(filepath.Join(dir, "feed"))
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				if ent.Name() == "wal" {
					continue
				}
				raw, err := os.ReadFile(filepath.Join(dir, "feed", ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cdir, ent.Name()), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(cdir, "wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		committed := 0
		for committed+1 < len(bounds) && bounds[committed+1] <= cut {
			committed++
		}
		h2 := openTestHub(t, filepath.Dir(cdir), m, PersistOptions{})
		hs2, err := h2.Get("feed")
		if err != nil {
			t.Fatal(err)
		}
		res, err := hs2.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("cut %d (%d committed)", cut, committed),
			[]Result{res}, []Result{refs[committed]})
		if err := h2.CloseAll(); err != nil {
			t.Fatal(err)
		}
		// CloseAll checkpointed the copy; remove it so the scratch space
		// stays bounded across the few-hundred-cut matrix.
		os.RemoveAll(filepath.Dir(cdir))
	}
}

// Replaying the same WAL twice is a no-op: two independent recoveries of
// one crashed directory agree, and a WAL whose records are all at or
// below the checkpoint watermark (the crash window between checkpoint
// replace and WAL truncation) restores to exactly the checkpoint.
func TestReplayIdempotence(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	posts := genPosts(100, 41)
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Two recoveries of the same crash must agree with each other.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	h3 := openTestHub(t, dir, m, PersistOptions{})
	defer h3.CloseAll()
	hs3, err := h3.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "double replay",
		persistQueries(t, func(q Query) (Result, error) { return hs3.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }))

	// Manufacture the checkpoint-written-WAL-not-yet-truncated crash:
	// checkpoint through h2's stream, then restore the pre-checkpoint WAL
	// bytes. Every record is ≤ the checkpoint's watermark, so replay must
	// skip them all.
	walPath := filepath.Join(dir, "feed", "wal")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) == 0 {
		t.Fatal("test needs a non-empty WAL")
	}
	want := persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) })
	if _, err := hs2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	h4 := openTestHub(t, dir, m, PersistOptions{})
	defer h4.CloseAll()
	hs4, err := h4.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "stale WAL skipped",
		persistQueries(t, func(q Query) (Result, error) { return hs4.Query(nil, q) }), want)
	if st := hs4.Stats(); st.Persist.WALSeq != uint64(len(posts)) {
		t.Errorf("recovered WALSeq = %d, want %d (watermark preserved)", st.Persist.WALSeq, len(posts))
	}
}

// Posts buffered in the open bucket survive both checkpointing and
// crash-replay: after recovery a Flush makes them visible exactly as on
// the uninterrupted stream.
func TestPendingPostsSurvive(t *testing.T) {
	m := trainTestModel(t)
	for _, checkpointed := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpointed=%v", checkpointed), func(t *testing.T) {
			dir := t.TempDir()
			h := openTestHub(t, dir, m, PersistOptions{})
			hs, err := h.Create("feed", m, persistOpts())
			if err != nil {
				t.Fatal(err)
			}
			mirror := mirrorStream(t, m)
			posts := genPosts(40, 51)
			for _, p := range posts {
				if err := hs.Add(p); err != nil {
					t.Fatal(err)
				}
				if err := mirror.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if checkpointed {
				if _, err := hs.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			h2 := openTestHub(t, dir, m, PersistOptions{})
			defer h2.CloseAll()
			hs2, err := h2.Get("feed")
			if err != nil {
				t.Fatal(err)
			}
			now := posts[len(posts)-1].Time + 1
			if err := hs2.Flush(now); err != nil {
				t.Fatal(err)
			}
			if err := mirror.Flush(now); err != nil {
				t.Fatal(err)
			}
			sameResults(t, "pending",
				persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
				persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
		})
	}
}

// Opening persisted state against a different model is refused with the
// typed version sentinel — word IDs and topic indexes would silently
// disagree otherwise.
func TestRecoveryRejectsDifferentModel(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range genPosts(20, 61) {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	other, err := TrainModel(corpus(200), WithTopics(2), WithIterations(40), WithSeed(99),
		WithPriors(0.5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenHub(dir, other, PersistOptions{Fsync: FsyncNever}); !errors.Is(err, ErrModelVersion) {
		t.Errorf("different-model open = %v, want ErrModelVersion", err)
	}
	// Same model: still recoverable.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	h2.CloseAll()
}

// A crash inside Create, between its Mkdir and the manifest's rename,
// leaves a stream directory holding nothing but, at most, the manifest's
// temp file. No write ever reached that stream, so OpenHub removes the
// directory and recovers the others; a directory with anything else and
// no manifest is still refused.
func TestCrashInsideCreateLeavesNoStream(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range genPosts(40, 63) {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	want := persistQueries(t, func(q Query) (Result, error) { return hs.Query(nil, q) })
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	half := filepath.Join(dir, "half")
	if err := os.Mkdir(half, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(half, persist.MetaFile+".tmp"), []byte("KSIRME"), 0o644); err != nil {
		t.Fatal(err)
	}

	h = openTestHub(t, dir, m, PersistOptions{})
	if got := h.List(); !reflect.DeepEqual(got, []string{"feed"}) {
		t.Fatalf("recovered %v, want [feed]", got)
	}
	for _, name := range []string{"empty", "half"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("half-created %s left on disk: %v", name, err)
		}
	}
	hs, err = h.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after dropping half-created streams",
		persistQueries(t, func(q Query) (Result, error) { return hs.Query(nil, q) }), want)
	if _, err := h.Create("half", m, persistOpts()); err != nil {
		t.Fatalf("re-creating the half-created name: %v", err)
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "orphan")
	if err := os.Mkdir(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, persist.WALFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenHub(dir, m, PersistOptions{Fsync: FsyncNever}); err == nil {
		t.Fatal("a stream directory with a WAL but no manifest was accepted")
	}
	if _, err := os.Stat(filepath.Join(orphan, persist.WALFile)); err != nil {
		t.Errorf("refused directory was touched: %v", err)
	}
}

// Durability API edges: checkpoints need a durable hub; a closed stream's
// name stays reserved on disk; names with escaping round-trip through
// their directory.
func TestPersistenceAPIEdges(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()

	plain := NewHub()
	phs, err := plain.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phs.Checkpoint(); !errors.Is(err, ErrPersistDisabled) {
		t.Errorf("Checkpoint on in-memory hub = %v, want ErrPersistDisabled", err)
	}
	if ps := phs.Stats().Persist; ps.Enabled {
		t.Error("in-memory stream reports persistence enabled")
	}

	h := openTestHub(t, dir, m, PersistOptions{})
	name := "feed%41" // '%' survives validName and needs path-escaping on disk
	hs, err := h.Create(name, m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, url.PathEscape(name))); err != nil {
		t.Errorf("escaped stream directory missing: %v", err)
	}
	if err := hs.Add(genPosts(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(name); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create(name, m, persistOpts()); !errors.Is(err, ErrStreamExists) {
		t.Errorf("re-creating a closed durable stream = %v, want ErrStreamExists", err)
	}
	// The closed stream's durable state is recovered by the next open.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if hs2.Stats().Persist.CheckpointBucket < 0 {
		t.Error("final checkpoint missing after Close")
	}
}

// The race e2e of the issue: concurrent queries run against a stream
// while it ingests; the process "dies" mid-stream (hub abandoned); the
// reopened stream must answer with identical top-k and bucket sequence.
// Run under -race this also exercises recovery against the live engine's
// concurrency machinery.
func TestConcurrentIngestCrashRecovery(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 4})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(300, 81)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := hs.Query(nil, Query{K: 3, Keywords: []string{"goal", "dunk"}})
				if err != nil {
					panic(err)
				}
				_ = res
			}
		}()
	}
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	// Crash, reopen, compare.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "concurrent crash",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	if a, b := hs2.Stats(), mirror.Stats(); a.Bucket != b.Bucket {
		t.Errorf("bucket sequence %d, want %d", a.Bucket, b.Bucket)
	}
}

func TestModelFileVersionSentinel(t *testing.T) {
	// The same sentinel covers model files and persistence artifacts; the
	// model path is exercised in model_io_test.go, here the fsync parser
	// and enum round-trip.
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); !errors.Is(err, ErrBadOptions) {
		t.Error("bad fsync policy not ErrBadOptions")
	}
}

// Regression: an AddBatch spanning more buckets than CheckpointEvery used
// to checkpoint mid-prefix — the snapshot already contained posts whose
// WAL records were then written past its watermark, and replay re-applied
// them, making the directory unrecoverable. The checkpoint trigger now
// runs only after the whole accepted prefix is logged. Before the crash the
// live durable stream, which applied the whole multi-bucket batch in one commit,
// must be byte-identical to a memory-only stream fed the same posts.
func TestAddBatchCheckpointBoundary(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 1})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(120, 91) // crosses many 60s buckets in one batch
	if n, err := hs.AddBatch(posts); err != nil || n != len(posts) {
		t.Fatalf("AddBatch = %d, %v", n, err)
	}
	if _, err := mirror.AddBatch(posts); err != nil {
		t.Fatal(err)
	}
	if a, b := hs.Stats(), mirror.Stats(); a.Bucket != b.Bucket || a.Bucket < 2 {
		t.Fatalf("live stream at bucket %d, mirror at %d (want equal, ≥ 2)", a.Bucket, b.Bucket)
	}
	if got, want := exportGob(t, hs.Stream()), exportGob(t, mirror); !bytes.Equal(got, want) {
		t.Fatal("live stream state after a multi-bucket AddBatch not byte-identical to the memory-only one")
	}
	// Crash and recover: the whole batch must be there exactly once.
	h2, err := OpenHub(dir, m, PersistOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("recovery after batched ingest: %v", err)
	}
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "batch boundary",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	if a, b := hs2.Stats(), mirror.Stats(); a.Elements != b.Elements || a.Bucket != b.Bucket {
		t.Errorf("stats diverge after batched recovery: %+v vs %+v", a, b)
	}
}

// A data directory written by an older topic sampler (testdata/checkpoint_v1:
// the dense sampler of InferVersion 1, a checkpoint with a WAL tail behind
// it, and the model it was built against) is refused at the manifest, before
// anything is opened: its WAL holds raw text, so replaying it here would
// bring the tail back with different topic vectors than the checkpointed
// elements around it. The refusal names the stream and changes no byte of
// the directory, which the build that wrote it can still open.
func TestOldSamplerDataDirRefused(t *testing.T) {
	const fixture = "testdata/checkpoint_v1"
	m, err := LoadModelFile(filepath.Join(fixture, "model.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyStreamTree(t, filepath.Join(fixture, "data"), dir)
	snapshot := func() map[string]string {
		t.Helper()
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			files[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := snapshot()
	if len(before) < 3 {
		t.Fatalf("the fixture holds %d files, want at least meta, checkpoint and wal", len(before))
	}
	for _, po := range []PersistOptions{{}, {MaxResidentStreams: 1}} { // eager and deferred recovery
		h, err := OpenHub(dir, m, po)
		if err == nil {
			h.CloseAll()
			t.Fatalf("OpenHub(%+v) opened a directory written by another sampler", po)
		}
		if !errors.Is(err, ErrModelVersion) || !strings.Contains(err.Error(), `"feed"`) {
			t.Errorf("OpenHub(%+v) = %v, want ErrModelVersion naming the stream", po, err)
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("OpenHub(%+v) changed the refused directory", po)
		}
	}
}

// A checkpoint whose state does not fit the model — here a window
// element with a topic past Z — fails OpenHub as corrupt instead of
// panicking in the restore.
func TestOpenHubRefusesElementOutsideModel(t *testing.T) {
	m := trainTestModel(t)
	src := t.TempDir()
	h := openTestHub(t, src, m, PersistOptions{})
	hs, err := h.Create("s", m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := hs.Add(Post{ID: i, Time: i * 30, Text: "late goal wins the derby"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}
	ck, err := persist.LoadCheckpoint(filepath.Join(src, "s"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Log != nil {
		defer ck.Log.Close()
	}
	if len(ck.Core.Window.Window) == 0 {
		t.Fatal("the checkpoint holds no window element")
	}
	e := *ck.Core.Window.Window[0]
	e.Topics.Topics = append([]int32(nil), e.Topics.Topics...)
	e.Topics.Topics[len(e.Topics.Topics)-1] = 99
	ck.Core.Window.Window = append([]*stream.Element{&e}, ck.Core.Window.Window[1:]...)

	dst := t.TempDir()
	copyStreamTree(t, src, dst)
	for _, f := range []string{persist.CheckpointFile, persist.CheckpointFile + ".bak", persist.ElementsFile, persist.WALFile} {
		os.Remove(filepath.Join(dst, "s", f))
	}
	if err := persist.WriteCheckpoint(filepath.Join(dst, "s"), ck); err != nil {
		t.Fatal(err)
	}
	_, err = OpenHub(dst, m, PersistOptions{})
	if !errors.Is(err, ErrPersist) || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("OpenHub over an element outside the model: %v, want a corrupt-state ErrPersist", err)
	}
}

// A data directory written by the build before archived elements became
// records in memory (testdata/checkpoint_v2, checkpoint format v2: a head
// over an element log, the previous head as .bak, and a WAL tail whose
// posts cite posts 3 and 7, archived long before, so its replay
// resurrects them) opens with this build and answers as the build that
// wrote it did; and one more checkpoint leaves the element log exactly as
// that build's next checkpoint left it. answers.json holds that build's
// answers, stream stats and element-log size and SHA-256.
func TestCheckpointV2DataDirStillOpens(t *testing.T) {
	const fixture = "testdata/checkpoint_v2"
	m, err := LoadModelFile(filepath.Join(fixture, "model.bin"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(fixture, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Results               []Result
		Active                int
		Now, Bucket, Elements int64
		ElementsBytes         int64
		ElementsSHA256        string
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyStreamTree(t, filepath.Join(fixture, "data"), dir)

	// The fixture still has the shape it was made for: 3 and 7 archived
	// and inactive at the checkpoint.
	ck, err := persist.LoadCheckpoint(filepath.Join(dir, "feed"))
	if err != nil {
		t.Fatal(err)
	}
	archived := map[int64]bool{}
	for i := 0; i < ck.Core.Window.Archive.Len(); i++ {
		e, err := ck.Core.Window.Archive.Elements(i)
		if err != nil {
			t.Fatal(err)
		}
		archived[int64(e[0].ID)] = true
	}
	for _, a := range ck.Core.Window.Active {
		delete(archived, int64(a.ID))
	}
	if !archived[3] || !archived[7] {
		t.Fatal("posts 3 and 7 are not archived and inactive in the fixture's checkpoint")
	}

	h, err := OpenHub(dir, m, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(persistQueries(t, func(q Query) (Result, error) { return hs.Query(nil, q) }))
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := json.Marshal(want.Results); !bytes.Equal(got, exp) {
		t.Errorf("answers differ from the writing build's:\n got %s\nwant %s", got, exp)
	}
	if st := hs.Stats(); st.Active != want.Active || st.Now != want.Now || st.Bucket != want.Bucket || st.Elements != want.Elements {
		t.Errorf("stats %+v, want active %d, now %d, bucket %d, elements %d", st, want.Active, want.Now, want.Bucket, want.Elements)
	}
	if _, err := hs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "feed", persist.ElementsFile))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(log); int64(len(log)) != want.ElementsBytes || hex.EncodeToString(sum[:]) != want.ElementsSHA256 {
		t.Errorf("element log after one more checkpoint: %d bytes, SHA-256 %x; the writing build left %d bytes, %s",
			len(log), sum, want.ElementsBytes, want.ElementsSHA256)
	}
}

// checkpointCounters reads the process-wide checkpoint metrics the way a
// scrape would: checkpoints taken and bytes written.
func checkpointCounters(t *testing.T) (count, written float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.Default().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, "ksir_checkpoints_total %g", &v); err == nil {
			count = v
		}
		if _, err := fmt.Sscanf(line, "ksir_checkpoint_bytes_total %g", &v); err == nil {
			written = v
		}
	}
	return count, written
}

// What a checkpoint writes follows the live state, not the stream's age:
// over sixteen windows of posts every automatic checkpoint writes a head
// and the elements that arrived since the last one, so its bytes stay
// within a constant of (active + new posts) from the first window to the
// last. (Format v1 rewrote the whole archive every time: sixteen windows
// in it wrote about ten times what it wrote in the first.) The counter an
// operator reads, ksir_checkpoint_bytes_total, must say the same as the
// disk: head bytes plus log growth.
func TestCheckpointBytesFlatOverLifetime(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 5}) // one window
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	posts := genPosts(420, 71)
	if windows := (posts[len(posts)-1].Time - posts[0].Time) / int64(persistOpts().Window.Seconds()); windows < 10 {
		t.Fatalf("fixture spans %d windows, want at least 10", windows)
	}
	sdir := filepath.Join(dir, "feed")
	size := func(name string) float64 {
		fi, err := os.Stat(filepath.Join(sdir, name))
		if err != nil {
			return 0
		}
		return float64(fi.Size())
	}

	// perUnit is the ceiling on bytes per (active element + new post): an
	// element frame of these posts is ~110 bytes and an active element
	// costs its 16-byte reference plus a 24-byte tuple per topic.
	const perUnit, fixed = 200, 512
	var ratios []float64
	taken, since, logSize := int64(0), 0, 0.0
	count0, bytes0 := checkpointCounters(t)
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		since++
		st := hs.Stats()
		if st.Persist.Checkpoints == taken {
			continue
		}
		taken = st.Persist.Checkpoints
		count1, bytes1 := checkpointCounters(t)
		wrote := bytes1 - bytes0
		if count1-count0 != 1 {
			t.Fatalf("checkpoint %d: ksir_checkpoints_total moved by %v", taken, count1-count0)
		}
		if onDisk := size(persist.CheckpointFile) + size(persist.ElementsFile) - logSize; wrote != onDisk {
			t.Fatalf("checkpoint %d: ksir_checkpoint_bytes_total moved by %v, the disk by %v (head + log growth)", taken, wrote, onDisk)
		}
		units := float64(st.Active + since)
		if wrote > fixed+perUnit*units {
			t.Fatalf("checkpoint %d at bucket %d wrote %v bytes for %d active + %d new posts", taken, st.Bucket, wrote, st.Active, since)
		}
		ratios = append(ratios, wrote/units)
		count0, bytes0, since, logSize = count1, bytes1, 0, size(persist.ElementsFile)
	}
	if len(ratios) < 10 {
		t.Fatalf("only %d automatic checkpoints over the fixture", len(ratios))
	}
	third := len(ratios) / 3
	early, late := mean(ratios[:third]), mean(ratios[len(ratios)-third:])
	if late > 1.5*early {
		t.Fatalf("bytes per (active + new) grew from %.0f in the first third of the stream's life to %.0f in the last", early, late)
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Under FsyncInterval an idle stream's WAL tail reaches stable storage
// within the interval with no further op: the idle-sync timer syncs it.
func TestHubIdleWALSyncedWithinInterval(t *testing.T) {
	m := trainTestModel(t)
	h, err := OpenHub(t.TempDir(), m, PersistOptions{FsyncInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Create("idle", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	// An Add past the interval syncs inline and leaves nothing dirty;
	// the next one, well inside the fresh interval, leaves a dirty tail.
	var synced int64
	for _, p := range genPosts(20, 67) {
		synced = hs.Stats().Pipeline.Fsyncs
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if hs.Stats().Pipeline.Fsyncs == synced {
			break
		}
	}
	if hs.Stats().Pipeline.Fsyncs != synced {
		t.Fatal("every Add synced inline; no dirty tail to observe")
	}
	waitFor(t, "the idle tail to be synced", func() bool { return hs.Stats().Pipeline.Fsyncs > synced })
}

// walFile is what a WAL writes through (see persist.WAL.SwapFileForTest).
type walFile interface {
	Write(b []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// shortWriteWALFile stands between a stream's WAL and its file and makes
// the first write store only half its bytes, reporting no error — a full
// disk's short write.
type shortWriteWALFile struct {
	inner walFile
	fired bool
}

func (f *shortWriteWALFile) Write(b []byte) (int, error) {
	if !f.fired {
		f.fired = true
		return f.inner.Write(b[:len(b)/2])
	}
	return f.inner.Write(b)
}
func (f *shortWriteWALFile) Sync() error                          { return f.inner.Sync() }
func (f *shortWriteWALFile) Truncate(size int64) error            { return f.inner.Truncate(size) }
func (f *shortWriteWALFile) Seek(off int64, w int) (int64, error) { return f.inner.Seek(off, w) }
func (f *shortWriteWALFile) Close() error                         { return f.inner.Close() }

// A failed WAL write fails the stream's durability, not just the post it
// carried: that Add and every later one report ErrPersist — applied in
// memory, not durable — until a checkpoint captures the in-memory state
// and resets the log. From then on Adds are durable again, and a crash
// loses none of the posts, not even those that were refused durability.
func TestFailedWALWriteFailsAddsUntilCheckpoint(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h, err := OpenHub(dir, m, PersistOptions{Fsync: FsyncAlways, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(80, 29)
	add := func(p Post) error {
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
		return hs.Add(p)
	}
	for _, p := range posts[:30] {
		if err := add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Under FsyncAlways the WAL has no idle sync and no commit is under way
	// between ops: the swap happens before the next op takes the lock.
	wal := hs.pers.walp.Load()
	faulty := &shortWriteWALFile{}
	faulty.inner = wal.SwapFileForTest(faulty)
	for i, p := range posts[30:33] {
		if err := add(p); !errors.Is(err, ErrPersist) {
			t.Fatalf("Add %d after the short write = %v, want ErrPersist", i, err)
		}
	}
	if _, err := hs.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of a stream whose WAL failed: %v", err)
	}
	for _, p := range posts[33:] {
		if err := add(p); err != nil {
			t.Fatalf("Add after the healing checkpoint: %v", err)
		}
	}
	last := posts[len(posts)-1].Time + 1
	if err := hs.Flush(last); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Flush(last); err != nil {
		t.Fatal(err)
	}

	// Crash: reopen the directory with the hub still open.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "recovered after a failed WAL write",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	if a, b := hs2.Stats(), mirror.Stats(); a.Elements != b.Elements || a.Bucket != b.Bucket {
		t.Errorf("stats diverge: %+v vs %+v", a, b)
	}
}

// The automatic checkpoint heals a failed WAL too: with no explicit
// Checkpoint, the first commit that crosses CheckpointEvery buckets after
// the failure checkpoints the stream, and the Adds after it are durable.
func TestFailedWALHealedByAutomaticCheckpoint(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h, err := OpenHub(dir, m, PersistOptions{Fsync: FsyncAlways, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(80, 31)
	add := func(p Post) error {
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
		return hs.Add(p)
	}
	for _, p := range posts[:30] {
		if err := add(p); err != nil {
			t.Fatal(err)
		}
	}
	wal := hs.pers.walp.Load()
	faulty := &shortWriteWALFile{}
	faulty.inner = wal.SwapFileForTest(faulty)
	before := hs.Stats().Persist.Checkpoints
	if err := add(posts[30]); !errors.Is(err, ErrPersist) {
		t.Fatalf("Add after the short write = %v, want ErrPersist", err)
	}
	// Posts 30.. span several 60 s buckets, so some commit among the next
	// few crosses CheckpointEvery and heals the log.
	healed := -1
	for i, p := range posts[31:] {
		err := add(p)
		if err == nil {
			healed = 31 + i
			break
		}
		if !errors.Is(err, ErrPersist) {
			t.Fatalf("Add %d while the WAL is failed = %v, want ErrPersist", 31+i, err)
		}
	}
	if healed < 0 {
		t.Fatal("no Add succeeded after the failure: the automatic checkpoint never healed the WAL")
	}
	if got := hs.Stats().Persist.Checkpoints; got <= before {
		t.Fatalf("checkpoints %d -> %d: the healing came from no checkpoint", before, got)
	}
	for _, p := range posts[healed+1:] {
		if err := add(p); err != nil {
			t.Fatalf("Add after the automatic healing checkpoint: %v", err)
		}
	}
	last := posts[len(posts)-1].Time + 1
	if err := hs.Flush(last); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Flush(last); err != nil {
		t.Fatal(err)
	}

	// Crash: reopen the directory with the hub still open.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "recovered after an automatic healing checkpoint",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	if a, b := hs2.Stats(), mirror.Stats(); a.Elements != b.Elements || a.Bucket != b.Bucket {
		t.Errorf("stats diverge: %+v vs %+v", a, b)
	}
}

// gateWALFile stands between a stream's WAL and its file and counts the
// fsyncs that reach it in syncs. While held is set, the next fsync clears
// it, announces itself on entered and waits on release; the fsync whose
// count is failAt fails with failErr.
type gateWALFile struct {
	walFile
	held    atomic.Bool
	entered chan struct{}
	release chan struct{}
	syncs   atomic.Int64
	failAt  atomic.Int64
	failErr error
}

func (f *gateWALFile) Sync() error {
	n := f.syncs.Add(1)
	if f.held.CompareAndSwap(true, false) {
		f.entered <- struct{}{}
		<-f.release
	}
	if n == f.failAt.Load() {
		return f.failErr
	}
	return f.walFile.Sync()
}

// Group commit by combining, free of scheduler timing: while one Add's
// fsync is held, eight producers queue their Adds behind it; once it is
// released, one of them commits all eight as one batch with one fsync. A
// WAL failure in such a batch is joined into exactly the ops whose records
// were in it — a post rejected before logging reports its rejection alone.
func TestGroupCommitCombinesQueuedProducers(t *testing.T) {
	m := trainTestModel(t)
	h, err := OpenHub(t.TempDir(), m, PersistOptions{Fsync: FsyncAlways, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	texts := genPosts(18, 71)
	post := func(id int64) Post {
		// One shared timestamp: acceptance never depends on the order the
		// producers queue in.
		return Post{ID: id, Time: 700, Text: texts[id%int64(len(texts))].Text}
	}
	injected := errors.New("injected fsync failure")
	gate := &gateWALFile{entered: make(chan struct{}), release: make(chan struct{}), failErr: injected}
	gate.walFile = hs.pers.walp.Load().SwapFileForTest(gate)

	// round holds the fsync of post first's Add, queues an Add of each of
	// ids behind it, fails the fsync after the held one if fail is set,
	// and releases the held one. It returns each id's Add result, how many
	// fsyncs reached the file after the held one, and the pipeline
	// counters' growth over the round.
	round := func(first int64, ids []int64, fail bool) (map[int64]error, int64, PipelineStats) {
		t.Helper()
		before := hs.Stats().Pipeline
		gate.held.Store(true)
		firstDone := make(chan error)
		go func() { firstDone <- hs.Add(post(first)) }()
		<-gate.entered
		synced := gate.syncs.Load()
		var mu sync.Mutex
		errs := make(map[int64]error)
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := hs.Add(post(id))
				mu.Lock()
				errs[id] = err
				mu.Unlock()
			}()
		}
		waitFor(t, "the producers to queue", func() bool { return hs.Stats().Pipeline.QueueDepth == len(ids) })
		if fail {
			gate.failAt.Store(synced + 1)
		}
		gate.release <- struct{}{}
		if err := <-firstDone; err != nil {
			t.Fatalf("Add %d: %v", first, err)
		}
		wg.Wait()
		after := hs.Stats().Pipeline
		return errs, gate.syncs.Load() - synced, PipelineStats{
			Ops:     after.Ops - before.Ops,
			Batches: after.Batches - before.Batches,
			Fsyncs:  after.Fsyncs - before.Fsyncs,
		}
	}

	ids := []int64{2, 3, 4, 5, 6, 7, 8, 9}
	errs, fsyncs, grew := round(1, ids, false)
	for id, err := range errs {
		if err != nil {
			t.Errorf("Add %d: %v", id, err)
		}
	}
	if want := (PipelineStats{Ops: 9, Batches: 2, Fsyncs: 2}); grew != want || fsyncs != 1 {
		t.Errorf("pipeline grew by %+v and %d fsyncs followed the held one, want %+v and 1: the eight queued Adds are one batch, one fsync",
			grew, fsyncs, want)
	}

	// Two of the eight reuse IDs the first round took: rejected, they log
	// no record, so the failed fsync is not theirs to report.
	errs, fsyncs, grew = round(10, []int64{11, 12, 3, 13, 14, 7, 15, 16}, true)
	for id, err := range errs {
		switch id {
		case 3, 7:
			if !errors.Is(err, ErrBadPost) || errors.Is(err, ErrPersist) {
				t.Errorf("duplicate Add %d = %v, want ErrBadPost alone", id, err)
			}
		default:
			if !errors.Is(err, ErrPersist) || !strings.Contains(err.Error(), injected.Error()) {
				t.Errorf("Add %d = %v, want ErrPersist carrying the injected failure", id, err)
			}
		}
	}
	if want := (PipelineStats{Ops: 9, Batches: 2, Fsyncs: 1}); grew != want || fsyncs != 1 {
		t.Errorf("pipeline grew by %+v and %d fsyncs followed the held one, want %+v and 1: one batch, its fsync failed",
			grew, fsyncs, want)
	}
}

// A panic inside a commit — here a subscription handler's — unwinds the
// caller that led it. The stream closes instead of staying locked: the
// producers queued with that caller return, and a later Flush, Close and
// the hub's CloseAll return ErrStreamClosed rather than wait for a leader
// that is gone.
func TestCommitPanicClosesStream(t *testing.T) {
	m := trainTestModel(t)
	h, err := OpenHub(t.TempDir(), m, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Subscribe(context.Background(), Query{K: 2, Keywords: []string{"goal"}}, time.Minute, func(Result) {
		panic("subscription handler")
	}); err != nil {
		t.Fatal(err)
	}
	// Four producers race through the bucket whose completion fires the
	// handler; whichever leads that commit panics.
	posts := genPosts(200, 73)
	var panics atomic.Int64
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			for i := w; i < len(posts); i += 4 {
				if err := hs.Add(posts[i]); errors.Is(err, ErrStreamClosed) {
					return
				}
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		wg.Wait()
		_, err := hs.Checkpoint()
		errs := []error{hs.Flush(1 << 20), err, h.CloseAll(), hs.Close()}
		for _, err := range errs {
			if !errors.Is(err, ErrStreamClosed) {
				done <- fmt.Errorf("after the panic: err = %v, want ErrStreamClosed", err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the stream stayed locked after a commit panicked")
	}
	if n := panics.Load(); n != 1 {
		t.Errorf("%d producers panicked, want 1", n)
	}
	select {
	case <-hs.Done():
	default:
		t.Error("Done not closed by the panicked commit")
	}
}
