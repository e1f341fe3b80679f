package ksir

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// scanChurnHub builds the scan-resistance fixture: eight durable streams
// (three "hot" regulars, five one-shot "scan" targets), closed and
// reopened under a 3-stream budget so every stream starts hibernated with
// an empty ghost list, then warms the hot set with two spaced touches
// each (the second touch earns the second-chance bit) and runs a one-shot
// scan over the cold five. Returns the reopened hub and the handles.
func scanChurnHub(t *testing.T) (h *Hub, hot, scan []*StreamHandle) {
	t.Helper()
	m := trainTestModel(t)
	dir := t.TempDir()
	seed := openTestHub(t, dir, m, PersistOptions{})
	posts := genPosts(40, 51)
	for _, name := range []string{"scan0", "scan1", "scan2", "scan3", "scan4", "hot0", "hot1", "hot2"} {
		hs, err := seed.Create(name, m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seed.CloseAll(); err != nil {
		t.Fatal(err)
	}

	h = openTestHub(t, dir, m, PersistOptions{
		MaxResidentStreams: 3,
		ResidencySweep:     time.Hour, // deterministic: the test sweeps by hand
	})

	q := Query{K: 3, Keywords: []string{"goal"}}
	for _, name := range []string{"hot0", "hot1", "hot2"} {
		hs, err := h.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		// First touch activates (probationary); the second, spaced past the
		// touch-gap floor, is the "touched again since admission" signal.
		for i := 0; i < 2; i++ {
			if _, err := hs.Query(nil, q); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		hot = append(hot, hs)
	}
	for _, name := range []string{"scan0", "scan1", "scan2", "scan3", "scan4"} {
		hs, err := h.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hs.Query(nil, q); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // strictly ordered last-touch clocks
		scan = append(scan, hs)
	}
	return h, hot, scan
}

// Scan resistance, the clock policy's contract: a one-shot scan over many
// cold streams must churn through its own probationary admissions and
// leave the bit-carrying hot set resident.
func TestResidencyScanChurnClockKeepsHotSet(t *testing.T) {
	h, hot, scan := scanChurnHub(t)
	defer h.CloseAll()

	if _, err := h.EnforceResidency(); err != nil {
		t.Fatal(err)
	}
	for _, hs := range hot {
		if !hs.Resident() {
			t.Errorf("%s evicted by the scan despite its second-chance bit", hs.Name())
		}
	}
	for _, hs := range scan {
		if hs.Resident() {
			t.Errorf("one-shot %s survived enforcement over the hot regulars", hs.Name())
		}
	}
	var saves int64
	for _, hs := range hot {
		saves += hs.Stats().Residency.SecondChanceSaves
	}
	if saves == 0 {
		t.Error("no second-chance saves recorded while the scan churned")
	}
}

// A stream evicted by the sweep and wanted again shortly after hits the
// ghost list on reactivation: the hit is counted as eviction regret and
// readmits the stream protected (bit set), so the next enforcement spares
// it and evicts an unprotected stream instead.
func TestResidencyGhostHitProtectsReadmission(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{
		MaxResidentStreams: 1,
		ResidencySweep:     time.Hour,
	})
	defer h.CloseAll()
	posts := genPosts(30, 52)
	var handles []*StreamHandle
	for _, name := range []string{"a", "b"} {
		hs, err := h.Create(name, m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
		handles = append(handles, hs)
	}
	a, b := handles[0], handles[1]
	if _, err := h.EnforceResidency(); err != nil {
		t.Fatal(err)
	}
	if a.Resident() || !b.Resident() {
		t.Fatalf("enforcement kept a=%v b=%v resident, want only b", a.Resident(), b.Resident())
	}

	// Touch a again: the reactivation consumes its ghost entry.
	if _, err := a.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Residency.GhostHits; got != 1 {
		t.Fatalf("ghost hits = %d, want 1", got)
	}
	// The regret-readmitted a is protected; unprotected b goes instead.
	if _, err := h.EnforceResidency(); err != nil {
		t.Fatal(err)
	}
	if !a.Resident() {
		t.Error("ghost-hit readmission did not protect a from the next sweep")
	}
	if b.Resident() {
		t.Error("enforcement failed to evict the unprotected b")
	}
	// A second reactivation finds the entry consumed: no double counting.
	if _, err := b.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Residency.GhostHits; got != 1 {
		t.Fatalf("ghost hits after unrelated activity = %d, want 1", got)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The standing-hint prefetch path end to end: Prefetch marks a hibernated
// stream, the sweep reactivates it in the background (a prefetch
// activation, with the deferred back buffer built off the critical path),
// a demand touch while still resident counts a hit, and a prefetch the
// demand never consumes counts a miss when the stream hibernates again.
func TestResidencyPrefetchHintHitAndMiss(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{
		PrefetchSweep:     time.Hour, // deterministic: the test sweeps by hand
		PrefetchLookahead: time.Hour,
	})
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range genPosts(40, 53) {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}

	// Sweep without a signal: nothing is due, the stream stays cold. The
	// ingest loop above may have run slowly enough to train the EWMA;
	// clear it so this control case really has no recurrence evidence.
	hs.touchGapEWMA.Store(0)
	h.prefetchSweep()
	time.Sleep(10 * time.Millisecond)
	if hs.Resident() {
		t.Fatal("sweep activated a stream with no hint and no recurrence")
	}

	hs.Prefetch()
	h.prefetchSweep()
	waitFor(t, "hinted prefetch activation", hs.Resident)
	r := hs.Stats().Residency
	if r.PrefetchActivations != 1 || r.PrefetchHits != 0 || r.PrefetchMisses != 0 {
		t.Fatalf("after prefetch: %+v, want exactly one activation, no hits/misses yet", r)
	}
	// The deferred back buffer is built by the prefetch activation itself,
	// right after it publishes the stream.
	waitFor(t, "background materialization", func() bool {
		return hs.Stats().Residency.LazyMaterializations >= 1
	})

	// The demand touch the prefetch anticipated: a hit, charged once.
	if _, err := hs.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	if r := hs.Stats().Residency; r.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", r.PrefetchHits)
	}
	if _, err := hs.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	if r := hs.Stats().Residency; r.PrefetchHits != 1 {
		t.Fatalf("second demand touch double-counted the hit: %+v", r)
	}

	// A prefetch nobody touches is a miss, charged at re-hibernation.
	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}
	hs.Prefetch()
	h.prefetchSweep()
	waitFor(t, "second prefetch activation", hs.Resident)
	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}
	r = hs.Stats().Residency
	if r.PrefetchActivations != 2 || r.PrefetchHits != 1 || r.PrefetchMisses != 1 {
		t.Fatalf("after untouched prefetch: %+v, want 2 activations / 1 hit / 1 miss", r)
	}
}

// The recurrence-driven prefetch path: spaced demand touches train the
// inter-arrival EWMA, and the sweep reactivates a hibernated stream whose
// predicted next touch falls within the lookahead — no hint required —
// while skipping streams with no recurrence or a stale prediction.
func TestResidencyPrefetchRecurrencePrediction(t *testing.T) {
	m := trainTestModel(t)
	h := openTestHub(t, t.TempDir(), m, PersistOptions{
		PrefetchSweep:     time.Hour,
		PrefetchLookahead: time.Hour,
	})
	defer h.CloseAll()
	posts := genPosts(40, 54)
	mk := func(name string) *StreamHandle {
		hs, err := h.Create(name, m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		return hs
	}
	rec, flat, stale := mk("recurring"), mk("flat"), mk("stale")

	// Train the recurring stream's EWMA with touches spaced past the
	// touch-gap floor.
	for i := 0; i < 4; i++ {
		time.Sleep(3 * time.Millisecond)
		if _, err := rec.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
			t.Fatal(err)
		}
	}
	if rec.touchGapEWMA.Load() <= 0 {
		t.Fatal("spaced touches did not train the inter-arrival EWMA")
	}
	for _, hs := range []*StreamHandle{rec, flat, stale} {
		if err := hs.Hibernate(); err != nil {
			t.Fatal(err)
		}
	}
	// White-box control cases: no recurrence evidence at all, and a
	// prediction staler than the lookahead (the pattern broke).
	flat.touchGapEWMA.Store(0)
	stale.touchGapEWMA.Store(int64(time.Millisecond))
	stale.lastTouch.Store(time.Now().Add(-3 * time.Hour).UnixNano())

	h.prefetchSweep()
	waitFor(t, "predicted prefetch activation", rec.Resident)
	if got := rec.Stats().Residency.PrefetchActivations; got != 1 {
		t.Fatalf("recurring stream prefetch activations = %d, want 1", got)
	}
	time.Sleep(10 * time.Millisecond)
	if flat.Resident() {
		t.Error("sweep prefetched a stream with no recurrence evidence")
	}
	if stale.Resident() {
		t.Error("sweep prefetched a stream whose prediction went stale")
	}
}

// Crash after a lazily reactivated stream took writes (the first of them
// built the deferred back buffer inline): recovery from a crash snapshot
// of the data dir is byte-identical to a twin that never hibernated,
// writes landed on either side of the materialization included.
func TestResidencyLazyMaterializeCrashRecovery(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorStream(t, m)
	posts := genPosts(130, 55)
	for _, p := range posts[:90] {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a budget so recovery is cold, then reactivate lazily:
	// the first query is served off the front buffer alone, and the first
	// write after it builds the back buffer.
	h2 := openTestHub(t, dir, m, PersistOptions{MaxResidentStreams: 4, ResidencySweep: time.Hour})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	if hs2.Resident() {
		t.Fatal("budgeted recovery left the stream resident before first touch")
	}
	if _, err := hs2.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	for _, p := range posts[90:] {
		if err := hs2.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Crash snapshot mid-flight: nothing below has run a checkpoint, so
	// recovery replays the WAL tail over the pre-crash checkpoint.
	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	copyStreamTree(t, dir, crash)

	h3 := openTestHub(t, crash, m, PersistOptions{MaxResidentStreams: 4, ResidencySweep: time.Hour})
	defer h3.CloseAll()
	hs3, err := h3.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "crash-recovered",
		persistQueries(t, func(q Query) (Result, error) { return hs3.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
	if got, want := exportGob(t, hs3.Stream()), exportGob(t, mirror); !bytes.Equal(got, want) {
		t.Fatal("crash-recovered state not byte-identical to the never-hibernated twin")
	}
	// The survivor hub agrees too (its writes were never lost to laziness).
	sameResults(t, "pre-crash survivor",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
}

// Cold recovery under a budget with hibernation cycles mixed in keeps the
// lazy default byte-identical at every step for several streams at once —
// the multi-tenant version of the core-level lazy/eager lockstep test.
func TestResidencyLazyActivationEquivalence(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	mirrors := map[string]*Stream{}
	posts := genPosts(120, 56)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		hs, err := h.Create(name, m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		mirrors[name] = mirrorStream(t, m)
		for _, p := range posts {
			if err := hs.Add(p); err != nil {
				t.Fatal(err)
			}
			if err := mirrors[name].Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	h2 := openTestHub(t, dir, m, PersistOptions{MaxResidentStreams: 2, ResidencySweep: time.Hour})
	defer h2.CloseAll()
	// Touch every stream (forcing budget churn across lazy activations),
	// then compare each against its never-hibernated twin.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		hs, err := h2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, name,
			persistQueries(t, func(q Query) (Result, error) { return hs.Query(nil, q) }),
			persistQueries(t, func(q Query) (Result, error) { return mirrors[name].Query(nil, q) }))
	}
	if _, err := h2.EnforceResidency(); err != nil {
		t.Fatal(err)
	}
	// Round two after enforcement: re-activations (some from the ghost
	// list) must still be exact.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		hs, err := h2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, name+" round 2",
			persistQueries(t, func(q Query) (Result, error) { return hs.Query(nil, q) }),
			persistQueries(t, func(q Query) (Result, error) { return mirrors[name].Query(nil, q) }))
		if got, want := exportGob(t, hs.Stream()), exportGob(t, mirrors[name]); !bytes.Equal(got, want) {
			t.Fatalf("%s: state diverged across lazy activation cycles", name)
		}
	}
}
