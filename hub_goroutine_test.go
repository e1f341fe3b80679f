package ksir

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// wantGoroutines polls until the process runs exactly want goroutines —
// they exit asynchronously after their stop signal, and the runtime's
// finalizer goroutine comes and goes — failing with every stack after 2s.
func wantGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, runtime.NumGoroutine(), want,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// goroutineBaseline samples the goroutine count once it has stopped
// moving: the goroutine of the test (or subtest) that just finished exits a
// moment after the next one has started.
func goroutineBaseline() int {
	for {
		n := runtime.NumGoroutine()
		time.Sleep(5 * time.Millisecond)
		if runtime.NumGoroutine() == n {
			return n
		}
	}
}

// Nothing a hub starts outlives CloseAll, and what it starts is one writer
// per stream plus at most one background sweeper — none at all on a hub
// without a residency budget — whatever the fsync policy.
func TestHubLeavesNothingRunning(t *testing.T) {
	m := trainTestModel(t)
	posts := genPosts(30, 57)
	q := Query{K: 3, Keywords: []string{"goal"}}
	// fill creates n streams with some state and checks that the hub now
	// runs exactly its background goroutines plus one writer per stream.
	fill := func(t *testing.T, h *Hub, n, before, background int) []*StreamHandle {
		t.Helper()
		var hss []*StreamHandle
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
			hss = append(hss, hs)
		}
		wantGoroutines(t, fmt.Sprintf("%d streams, %d background", n, background), before+n+background)
		return hss
	}
	closeAll := func(t *testing.T, h *Hub, before int) {
		t.Helper()
		if err := h.CloseAll(); err != nil {
			t.Fatal(err)
		}
		wantGoroutines(t, "after CloseAll", before)
		if err := h.CloseAll(); err != nil { // idempotent, sweeper included
			t.Fatal(err)
		}
	}

	t.Run("budget sweep", func(t *testing.T) {
		before := goroutineBaseline()
		h := openTestHub(t, t.TempDir(), m, PersistOptions{
			MaxResidentStreams: 2,
			ResidencySweep:     2 * time.Millisecond,
		})
		wantGoroutines(t, "OpenHub: the one sweeper", before+1)
		hss := fill(t, h, 4, before, 1)
		// Nobody calls EnforceResidency: the sweeper alone brings the four
		// streams Create left resident down to the budget.
		waitFor(t, "the sweeper to enforce the budget", func() bool {
			resident := 0
			for _, hs := range hss {
				if hs.Resident() {
					resident++
				}
			}
			return resident <= 2
		})
		for _, hs := range hss {
			if _, err := hs.Query(nil, q); err != nil {
				t.Fatal(err)
			}
		}
		closeAll(t, h, before)
	})

	// At the default policy, FsyncInterval: the writer syncs its own WAL,
	// so the interval sync adds no goroutine.
	openDefault := func(t *testing.T, dir string) *Hub {
		t.Helper()
		h, err := OpenHub(dir, m, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	t.Run("durable, no budget", func(t *testing.T) {
		dir := t.TempDir()
		before := goroutineBaseline()
		h := openDefault(t, dir)
		wantGoroutines(t, "OpenHub: nothing of its own", before)
		hss := fill(t, h, 2, before, 0)
		if err := hss[0].Hibernate(); err != nil {
			t.Fatal(err)
		}
		if _, err := hss[0].Query(nil, q); err != nil {
			t.Fatal(err)
		}
		closeAll(t, h, before)

		// Eager recovery: the same two writers and nothing else.
		h = openDefault(t, dir)
		wantGoroutines(t, "reopened: 2 writers", before+2)
		closeAll(t, h, before)
	})

	t.Run("in memory", func(t *testing.T) {
		before := goroutineBaseline()
		h := NewHub()
		fill(t, h, 2, before, 0)
		closeAll(t, h, before)
	})
}

// openFiles counts the process's open file descriptors.
func openFiles(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// A resident durable stream holds exactly two files open — its WAL and,
// once a checkpoint has written one, its element log, which its archive
// reads back from — and a hibernated or closed one none: hibernation,
// reactivation and CloseAll leak no descriptor.
func TestHubLeavesNoFileOpen(t *testing.T) {
	m := trainTestModel(t)
	// Files an earlier test dropped unclosed are closed by their
	// finalizers: run those now, then keep the collector — and with it
	// any finalizer that would close a file this test leaks — off.
	runtime.GC()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFiles(t)
	want := func(what string, n int) {
		t.Helper()
		if got := openFiles(t); got != before+n {
			t.Fatalf("%s: %d files open, want %d", what, got, before+n)
		}
	}
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 1})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	want("a new stream", 1) // its WAL; no checkpoint has written a log yet
	for _, p := range genPosts(60, 59) {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	want("after automatic checkpoints", 2)
	for round := 0; round < 3; round++ {
		if err := hs.Hibernate(); err != nil {
			t.Fatal(err)
		}
		want("hibernated", 0)
		if _, err := hs.Query(nil, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
			t.Fatal(err)
		}
		want("reactivated", 2)
	}
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}
	want("after CloseAll", 0)

	h = openTestHub(t, dir, m, PersistOptions{})
	want("recovered", 2)
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}
	want("recovered, then closed", 0)
}
