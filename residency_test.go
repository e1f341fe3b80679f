package ksir

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

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
	// Round two after enforcement: re-activations must still be exact.
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
