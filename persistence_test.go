package ksir

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"

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
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/metrics"
	"github.com/social-streams/ksir/internal/persist"
)

// persistOpts are the stream options used across the recovery suite:
// short buckets so a modest post count crosses many boundaries.
func persistOpts() Options {
	return Options{Window: 300 * time.Second, Bucket: 60 * time.Second, Lambda: 0.4, Eta: 5}
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
	// checkpoint through h2's handle, then restore the pre-checkpoint WAL
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

// Durability API edges: checkpoints need a durable hub; SwapModel is
// rejected on durable streams; a closed stream's name stays reserved on
// disk; names with escaping round-trip through their directory.
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
	if err := hs.SwapModel(m); !errors.Is(err, ErrPersist) {
		t.Errorf("SwapModel on durable stream = %v, want ErrPersist", err)
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

// Adopt makes a pre-existing stream durable immediately: its current
// state is checkpointed before Adopt returns.
func TestAdoptCheckpointsExistingState(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	st := mirrorStream(t, m)
	posts := genPosts(60, 71)
	if _, err := st.AddBatch(posts); err != nil {
		t.Fatal(err)
	}
	h := openTestHub(t, dir, m, PersistOptions{})
	if _, err := h.Adopt("adopted", st); err != nil {
		t.Fatal(err)
	}
	// Crash without a single further write.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("adopted")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "adopted",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return st.Query(nil, q) }))
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
// runs only after the whole accepted prefix is logged.
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
