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
// an empty ghost list, then warms the hot set with two touches each (the
// second touch earns the second-chance bit) and runs a one-shot
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
		// First touch activates (probationary); the second is the "touched
		// again since admission" signal.
		for i := 0; i < 2; i++ {
			if _, err := hs.Query(nil, q); err != nil {
				t.Fatal(err)
			}
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

// Crash after a stream reactivated by a query took writes: recovery from a
// crash snapshot of the data dir is byte-identical to a twin that never
// hibernated, the writes on the restored engine included.
func TestResidencyQueryFirstActivationCrashRecovery(t *testing.T) {
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

	// Reopen under a budget so recovery is cold, then reactivate by a
	// query before the first write.
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
	// The survivor hub agrees too.
	sameResults(t, "pre-crash survivor",
		persistQueries(t, func(q Query) (Result, error) { return hs2.Query(nil, q) }),
		persistQueries(t, func(q Query) (Result, error) { return mirror.Query(nil, q) }))
}

// Cold recovery under a budget with hibernation cycles mixed in keeps
// several streams at once byte-identical to never-hibernated twins at
// every step — the multi-tenant version of the core-level restore lockstep
// test.
func TestResidencyActivationCycleEquivalence(t *testing.T) {
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
	// Touch every stream (forcing budget churn across activations),
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
			t.Fatalf("%s: state diverged across activation cycles", name)
		}
	}
}
