package ksir

import (
	"fmt"
	"runtime"
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
// with neither a residency budget nor a prefetch sweep.
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

	t.Run("budget and prefetch sweep", func(t *testing.T) {
		before := goroutineBaseline()
		h := openTestHub(t, t.TempDir(), m, PersistOptions{
			MaxResidentStreams: 8, // sweeping, never binding
			ResidencySweep:     2 * time.Millisecond,
			PrefetchSweep:      2 * time.Millisecond,
		})
		wantGoroutines(t, "OpenHub: the one sweeper", before+1)
		hss := fill(t, h, 4, before, 1)
		for _, hs := range hss[:2] {
			if err := hs.Hibernate(); err != nil {
				t.Fatal(err)
			}
		}
		hss[0].Prefetch()
		waitFor(t, "hinted prefetch activation", hss[0].Resident)
		if _, err := hss[1].Query(nil, q); err != nil {
			t.Fatal(err)
		}
		closeAll(t, h, before)
	})

	t.Run("durable, no budget, no prefetch", func(t *testing.T) {
		dir := t.TempDir()
		before := goroutineBaseline()
		h := openTestHub(t, dir, m, PersistOptions{})
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
		h = openTestHub(t, dir, m, PersistOptions{})
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
