package ksir

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/persist"
)

// exportGob serializes a stream's full exported engine state — the same
// bytes a checkpoint would carry. Hibernation equivalence is exact: a
// stream driven across residency transitions must export byte-identical
// state (exact floats included) to a twin that never hibernated. The only
// masked fields are the two wall-clock maintenance timers, which measure
// this run's hardware, not the logical state. The archive is encoded as
// the records and texts it holds (stream.Archive.Materialize), read back
// from the element log where a checkpoint moved them there, so a stream
// compares equal to a memory-only twin byte for byte.
func exportGob(t *testing.T, st *Stream) []byte {
	t.Helper()
	es := st.stp.Load()
	if es == nil {
		t.Fatal("exportGob: the stream is not resident")
	}
	state := es.engine.ExportState()
	state.Stats.UpdateTime, state.Stats.ReplayTime = 0, 0
	arch, err := state.Window.Archive.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	state.Window.Archive = arch
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyStreamTree copies a hub data dir (stream subdirectories of flat
// files) — the crash-simulation snapshot the torn-hibernate tests recover
// from.
func copyStreamTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			copyStreamTree(t, sp, dp)
			continue
		}
		b, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func countResident(t *testing.T, h *Hub) int {
	t.Helper()
	n := 0
	for _, name := range h.List() {
		hs, err := h.Get(name)
		if err != nil {
			continue
		}
		if hs.Resident() {
			n++
		}
	}
	return n
}

// The tentpole contract: a stream hibernated and reactivated repeatedly
// mid-ingest ends in state byte-identical (gob, exact floats) to a twin
// that stayed resident throughout, and answers every query identically.
func TestHibernateReactivateEquivalence(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)

	posts := genPosts(300, 41)
	for i, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
		// Hibernate at irregular strides so transitions land mid-bucket
		// (pending posts outstanding) as well as on boundaries.
		if i%47 == 13 || i%101 == 60 {
			if err := hs.Hibernate(); err != nil {
				t.Fatalf("hibernate after post %d: %v", i, err)
			}
			if hs.Resident() {
				t.Fatalf("resident after hibernate (post %d)", i)
			}
		}
	}
	sameResults(t, "hibernated/reactivated",
		persistQueries(t, func(q Query) (Result, error) { return hs.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))

	hstats, mstats := hs.Stats(), mirror.Stats()
	if hstats.Active != mstats.Active || hstats.Now != mstats.Now ||
		hstats.Bucket != mstats.Bucket || hstats.Elements != mstats.Elements {
		t.Fatalf("stats diverge: %+v vs %+v", hstats, mstats)
	}
	if got, want := exportGob(t, hs.Stream()), exportGob(t, mirror); !bytes.Equal(got, want) {
		t.Fatalf("exported state diverges: %d vs %d bytes (and/or content)", len(got), len(want))
	}
	if r := hstats.Residency; r.Hibernations == 0 || r.Activations == 0 {
		t.Fatalf("residency counters did not move: %+v", r)
	}
}

// Hibernation bookkeeping: Resident goes false, Stats serves the captured
// counters without reactivating, a query transparently reactivates with a
// measured activation, and Hibernate is idempotent.
func TestHibernateStatsAndReactivation(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	for _, p := range genPosts(150, 42) {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	before := hs.Stats()
	if before.Residency.ResidentBytes <= 0 {
		t.Fatalf("resident stream reports %d resident bytes", before.Residency.ResidentBytes)
	}

	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}
	if err := hs.Hibernate(); err != nil {
		t.Fatalf("second hibernate not idempotent: %v", err)
	}
	if hs.Resident() {
		t.Fatal("stream still resident after hibernate")
	}
	cold := hs.Stats()
	if cold.Elements != before.Elements || cold.Active != before.Active ||
		cold.Bucket != before.Bucket || cold.Now != before.Now {
		t.Fatalf("hibernated stats lost counters: %+v vs %+v", cold, before)
	}
	if cold.Residency.Resident || cold.Residency.ResidentBytes != 0 {
		t.Fatalf("hibernated residency: %+v", cold.Residency)
	}
	if cold.Residency.Hibernations != 1 {
		t.Fatalf("hibernations = %d, want 1 (idempotent repeat must not count)", cold.Residency.Hibernations)
	}
	if hs.Resident() {
		t.Fatal("Stats reactivated the stream")
	}

	// A query reactivates and answers exactly as the resident twin.
	want, err := mirror.Query(nil, Query{K: 5, Keywords: []string{"goal", "striker"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hs.Query(nil, Query{K: 5, Keywords: []string{"goal", "striker"}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-reactivation", []Result{got}, []Result{want})
	hot := hs.Stats()
	if !hot.Residency.Resident || hot.Residency.Activations != 1 {
		t.Fatalf("reactivation not accounted: %+v", hot.Residency)
	}
	if hot.Residency.LastActivation <= 0 {
		t.Fatalf("last activation latency %v", hot.Residency.LastActivation)
	}
}

// Hibernating is refused while it would lose in-memory-only state, and on
// hubs that have nowhere to put the stream.
func TestHibernateRefusals(t *testing.T) {
	m := trainTestModel(t)

	// In-memory hub: no durable state to reactivate from.
	mem := NewHub()
	defer mem.CloseAll()
	ms, err := mem.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Hibernate(); !errors.Is(err, ErrPersistDisabled) {
		t.Fatalf("in-memory hibernate: %v, want ErrPersistDisabled", err)
	}

	// Durable hub with a standing query: subscriptions live in memory only.
	h := openTestHub(t, t.TempDir(), m, PersistOptions{})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := hs.Subscribe(context.Background(), Query{K: 3, Keywords: []string{"goal"}},
		persistOpts().Bucket, func(Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Hibernate(); !errors.Is(err, ErrStreamBusy) {
		t.Fatalf("hibernate with subscription: %v, want ErrStreamBusy", err)
	}
	if !hs.Resident() {
		t.Fatal("refused hibernate still released the stream")
	}
	hs.Unsubscribe(sub)
	if err := hs.Hibernate(); err != nil {
		t.Fatalf("hibernate after unsubscribe: %v", err)
	}
}

// Closing a hibernated stream must not reactivate it: the on-disk
// checkpoint is already current, so CloseAll leaves the bytes untouched
// and performs zero activations.
func TestCloseHibernatedDoesNotReactivate(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(120, 43)
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, "feed", "checkpoint")
	ckBefore, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}
	ckAfter, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckBefore, ckAfter) {
		t.Fatal("CloseAll rewrote the checkpoint of a hibernated stream")
	}
	if acts := hs.Stats().Residency.Activations; acts != 0 {
		t.Fatalf("close performed %d activations, want 0", acts)
	}

	// The untouched state recovers exactly.
	h2 := openTestHub(t, dir, m, PersistOptions{})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "reopened after hibernated close",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
}

// A crash torn mid-hibernation recovers exactly, whichever side of the
// checkpoint replace it fell on: (a) after the element-log append but
// before any head names it, (b) before the atomic rename (the log plus a
// stray checkpoint.tmp next to the pre-hibernate state), (c) after the
// rename but before the WAL truncation (new checkpoint + stale WAL records
// at or below its watermark), (d) after a completed hibernation.
func TestTornHibernateCrashRecovery(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 100000})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(150, 44)
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	pre := filepath.Join(t.TempDir(), "pre") // pre-hibernate: WAL only, no checkpoint
	if err := os.MkdirAll(pre, 0o755); err != nil {
		t.Fatal(err)
	}
	copyStreamTree(t, dir, pre)
	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}
	post := filepath.Join(t.TempDir(), "post") // post-hibernate: checkpoint, empty WAL
	if err := os.MkdirAll(post, 0o755); err != nil {
		t.Fatal(err)
	}
	copyStreamTree(t, dir, post)
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// landed copies one file of the completed hibernation into a layout.
	landed := func(t *testing.T, d, name string) {
		data, err := os.ReadFile(filepath.Join(post, "feed", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "feed", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	layouts := map[string]func(t *testing.T) string{
		"tornAfterLogAppend": func(t *testing.T) string {
			d := filepath.Join(t.TempDir(), "d")
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			copyStreamTree(t, pre, d)
			landed(t, d, persist.ElementsFile) // no head names it: invisible
			return d
		},
		"tornBeforeRename": func(t *testing.T) string {
			d := filepath.Join(t.TempDir(), "d")
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			copyStreamTree(t, pre, d)
			landed(t, d, persist.ElementsFile)
			// The torn write the crash left behind: garbage that must be
			// ignored, never loaded.
			if err := os.WriteFile(filepath.Join(d, "feed", "checkpoint.tmp"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			return d
		},
		"tornBeforeWALReset": func(t *testing.T) string {
			d := filepath.Join(t.TempDir(), "d")
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			copyStreamTree(t, pre, d)
			// The new checkpoint landed; the WAL still holds every record
			// at or below its watermark — replay must skip them all.
			landed(t, d, persist.ElementsFile)
			landed(t, d, persist.CheckpointFile)
			return d
		},
		"completed": func(t *testing.T) string {
			d := filepath.Join(t.TempDir(), "d")
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			copyStreamTree(t, post, d)
			return d
		},
	}
	for name, build := range layouts {
		t.Run(name, func(t *testing.T) {
			h2 := openTestHub(t, build(t), m, PersistOptions{})
			defer h2.CloseAll()
			hs2, err := h2.Get("feed")
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name,
				persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
				persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
			if got, want := exportGob(t, hs2.Stream()), exportGob(t, mirror); !bytes.Equal(got, want) {
				t.Fatal("recovered state not byte-identical to the never-hibernated twin")
			}
		})
	}
}

// budgetHub opens a hub under a budget of two resident streams, swept by
// hand, and creates n streams with some state, each touched strictly after
// the one before.
func budgetHub(t *testing.T, n int) (*Hub, []*Stream) {
	t.Helper()
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{
		MaxResidentStreams: 2,
		ResidencySweep:     time.Hour, // deterministic: the test sweeps by hand
	})
	posts := genPosts(40, 45)
	var hss []*Stream
	for i := 0; i < n; i++ {
		hs, err := h.Create(fmt.Sprintf("s%d", i), m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond) // strictly ordered last-touch clocks
		hss = append(hss, hs)
	}
	return h, hss
}

// enforce runs one sweep and checks that ksir_residency_evictions_total
// moved by exactly the count it returned.
func enforce(t *testing.T, h *Hub) int {
	t.Helper()
	before := obsResEvictions.Value()
	n, err := h.EnforceResidency()
	if err != nil {
		t.Fatal(err)
	}
	if got := obsResEvictions.Value() - before; got != uint64(n) {
		t.Fatalf("evictions counter moved by %d, EnforceResidency returned %d", got, n)
	}
	return n
}

// The residency budget: EnforceResidency hibernates the coldest streams
// down to the configured count, touching a cold stream reactivates it even
// over the budget, and the next sweep takes the coldest resident instead.
func TestResidencyBudget(t *testing.T) {
	const streams = 6
	h, hss := budgetHub(t, streams)
	defer h.CloseAll()
	if n := enforce(t, h); n != streams-2 {
		t.Fatalf("EnforceResidency hibernated %d, want %d", n, streams-2)
	}
	if got := countResident(t, h); got != 2 {
		t.Fatalf("%d resident after enforcement, want 2", got)
	}
	// The two warmest (most recently created) streams survived.
	for _, hs := range hss[4:] {
		if !hs.Resident() {
			t.Fatalf("%s was evicted despite being warmest", hs.Name())
		}
	}

	// Touching the coldest stream reactivates it over the budget; the sweep
	// then takes s4, now the coldest resident.
	if _, err := hss[0].Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	if got := countResident(t, h); !hss[0].Resident() || got != 3 {
		t.Fatalf("query left s0 resident=%v with %d resident, want true with 3", hss[0].Resident(), got)
	}
	if n := enforce(t, h); n != 1 {
		t.Fatalf("EnforceResidency hibernated %d, want 1", n)
	}
	if hss[4].Resident() || !hss[5].Resident() || !hss[0].Resident() {
		t.Fatalf("resident s4=%v s5=%v s0=%v after the sweep, want false true true",
			hss[4].Resident(), hss[5].Resident(), hss[0].Resident())
	}
}

// A stream holding a standing query cannot hibernate: the sweep leaves the
// coldest stream resident when it is busy, takes the next-coldest instead,
// and counts only what it hibernated.
func TestResidencySweepSkipsBusyStream(t *testing.T) {
	h, hss := budgetHub(t, 3)
	defer h.CloseAll()
	busy := hss[0]
	sub, err := busy.Subscribe(context.Background(), Query{K: 3, Keywords: []string{"goal"}},
		persistOpts().Bucket, func(Result) {})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Unsubscribe(sub)
	busy.lastTouch.Store(1) // subscribing touched s0: make it the coldest again

	if n := enforce(t, h); n != 1 {
		t.Fatalf("EnforceResidency hibernated %d, want 1", n)
	}
	if !hss[0].Resident() || hss[1].Resident() || !hss[2].Resident() {
		t.Fatalf("resident s0=%v s1=%v s2=%v after the sweep, want true false true",
			hss[0].Resident(), hss[1].Resident(), hss[2].Resident())
	}
}

// Cold recovery: opening a data dir under a residency budget registers
// every stream hibernated — no state is loaded until first touch — and a
// touched stream answers exactly as an eagerly recovered twin.
func TestColdRecoveryUnderBudget(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	mirror := mirrorStream(t, m)
	posts := genPosts(130, 46)
	for i := 0; i < 4; i++ {
		hs, err := h.Create(fmt.Sprintf("s%d", i), m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := mirror.Add(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	h2 := openTestHub(t, dir, m, PersistOptions{MaxResidentStreams: 2, ResidencySweep: time.Hour})
	defer h2.CloseAll()
	if got := len(h2.List()); got != 4 {
		t.Fatalf("cold recovery registered %d streams, want 4", got)
	}
	if got := countResident(t, h2); got != 0 {
		t.Fatalf("%d resident right after cold recovery, want 0", got)
	}
	// Listing and stats must not churn the hot tier.
	for _, name := range h2.List() {
		hs, _ := h2.Get(name)
		_ = hs.Stats()
	}
	if got := countResident(t, h2); got != 0 {
		t.Fatalf("stats sweep activated %d streams", got)
	}

	hs2, err := h2.Get("s2")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cold-recovered s2",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	if got := countResident(t, h2); got != 1 {
		t.Fatalf("%d resident after touching one stream, want 1", got)
	}
}
