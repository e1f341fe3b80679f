package ksir

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
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

// A resident stream costs no goroutine — memory-only or durable, at every
// fsync policy, from a hub or from New: its callers commit their own
// writes under its lock, and the helpers an AddBatch builds its elements
// on end before it returns, whether it commits or its queued op fails
// because the stream closed. What a hub starts is at most one background
// sweeper, none at all without a residency budget, and nothing outlives
// CloseAll.
func TestHubLeavesNothingRunning(t *testing.T) {
	m := trainTestModel(t)
	all := genPosts(30+2*256, 57)
	posts, batches := all[:30], [][]Post{all[30:286], all[286:]}
	q := Query{K: 3, Keywords: []string{"goal"}}
	// addBatch feeds one 256-post batch and checks that no helper of it is
	// still building once AddBatch has returned.
	addBatch := func(t *testing.T, hs *Stream, batch []Post) {
		t.Helper()
		_, err := hs.AddBatch(batch)
		if running := buildersRunning(); running != "" {
			t.Fatalf("a helper is still building after AddBatch returned:\n%s", running)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// fill creates n streams with some state and checks that the hub still
	// runs exactly its background goroutines.
	fill := func(t *testing.T, h *Hub, n, before, background int) []*Stream {
		t.Helper()
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
			for _, batch := range batches {
				addBatch(t, hs, batch)
			}
			hss = append(hss, hs)
		}
		wantGoroutines(t, fmt.Sprintf("%d streams, %d background", n, background), before+background)
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

	// Under FsyncInterval the idle sync is a timer an append arms: its
	// func runs only when it fires (a short interval here, so it does
	// within the test) and holds no goroutine in between.
	t.Run("durable, no budget", func(t *testing.T) {
		for _, policy := range []FsyncPolicy{FsyncInterval, FsyncAlways, FsyncNever} {
			t.Run("fsync "+policy.String(), func(t *testing.T) {
				po := PersistOptions{Fsync: policy, FsyncInterval: 5 * time.Millisecond}
				open := func(t *testing.T, dir string) *Hub {
					t.Helper()
					h, err := OpenHub(dir, m, po)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				dir := t.TempDir()
				before := goroutineBaseline()
				h := open(t, dir)
				wantGoroutines(t, "OpenHub: nothing of its own", before)
				hss := fill(t, h, 2, before, 0)
				time.Sleep(4 * po.FsyncInterval) // let the idle syncs fire
				wantGoroutines(t, "after the idle syncs", before)
				if err := hss[0].Hibernate(); err != nil {
					t.Fatal(err)
				}
				if _, err := hss[0].Query(nil, q); err != nil {
					t.Fatal(err)
				}
				wantGoroutines(t, "reactivated", before)
				closeAll(t, h, before)

				// Eager recovery: still nothing.
				h = open(t, dir)
				wantGoroutines(t, "reopened", before)
				closeAll(t, h, before)
			})
		}
	})

	t.Run("in memory", func(t *testing.T) {
		before := goroutineBaseline()
		h := NewHub()
		hss := fill(t, h, 2, before, 0)
		// A stream's own Close takes it out of its hub.
		if err := hss[0].Close(); err != nil {
			t.Fatal(err)
		}
		wantGoroutines(t, "one stream closed", before)
		if _, err := h.Get("s0"); !errors.Is(err, ErrUnknownStream) || h.Len() != 1 {
			t.Fatalf("closed stream still registered: Get err = %v, Len %d", err, h.Len())
		}
		if err := hss[0].Close(); !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("second Close: err = %v, want ErrStreamClosed", err)
		}
		closeAll(t, h, before)
	})

	// A stream from New holds nothing that must be closed; Close still
	// fences it.
	t.Run("New", func(t *testing.T) {
		before := goroutineBaseline()
		st, err := New(m, persistOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddBatch(posts); err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			addBatch(t, st, batch)
		}
		if _, err := st.Subscribe(context.Background(), q, time.Hour, func(Result) {}); err != nil {
			t.Fatal(err)
		}
		wantGoroutines(t, "New, fed and subscribed", before)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		wantGoroutines(t, "after Close", before)
		select {
		case <-st.Done():
		default:
			t.Error("Done not closed by Close")
		}
		later := map[string]error{
			"Add":       st.Add(Post{ID: 1000, Time: 1 << 20, Text: "goal"}),
			"Flush":     st.Flush(1 << 21),
			"Close":     st.Close(),
			"Hibernate": st.Hibernate(),
		}
		_, later["AddBatch"] = st.AddBatch(posts[:1])
		_, later["Checkpoint"] = st.Checkpoint()
		_, later["Query"] = st.Query(context.Background(), q)
		_, later["Explain"] = st.Explain(Result{}, q)
		_, later["Subscribe"] = st.Subscribe(context.Background(), q, time.Hour, func(Result) {})
		for op, err := range later {
			if !errors.Is(err, ErrStreamClosed) {
				t.Errorf("%s after Close: err = %v, want ErrStreamClosed", op, err)
			}
		}
	})

	// An AddBatch queued behind a commit that ends the stream — a Close
	// queued ahead of it, or a subscription handler that panics — fails
	// with ErrStreamClosed, and its helpers (four procs: three of them)
	// stop with it. The batch is long enough that they would still be
	// building when it fails if they did not.
	t.Run("AddBatch queued as the stream closes", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		long := genPosts(1<<14, 58)
		for _, how := range []string{"Close queued ahead", "handler panics"} {
			t.Run(how, func(t *testing.T) {
				before := goroutineBaseline()
				st, err := New(m, persistOpts())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.AddBatch(posts); err != nil {
					t.Fatal(err)
				}
				// The handler's first refresh holds the commit of the Flush
				// below until the batch has queued behind it.
				entered, release := make(chan struct{}), make(chan struct{})
				var first sync.Once
				if _, err := st.Subscribe(context.Background(), q, time.Minute, func(Result) {
					first.Do(func() { close(entered) })
					<-release
					if how == "handler panics" {
						panic("subscription handler")
					}
				}); err != nil {
					t.Fatal(err)
				}
				flushed := make(chan any, 1)
				go func() {
					defer func() { flushed <- recover() }()
					st.Flush(posts[len(posts)-1].Time + 3600)
				}()
				<-entered
				queued := 1
				closed := make(chan error, 1)
				if how == "Close queued ahead" {
					go func() { closed <- st.Close() }()
					waitFor(t, "Close to queue", func() bool { return st.Stats().Pipeline.QueueDepth == 1 })
					queued = 2
				}
				type outcome struct {
					err     error
					running string
				}
				added := make(chan outcome, 1)
				go func() {
					_, err := st.AddBatch(long)
					added <- outcome{err, buildersRunning()}
				}()
				waitFor(t, "the batch to queue", func() bool { return st.Stats().Pipeline.QueueDepth == queued })
				close(release)
				got := <-added
				if !errors.Is(got.err, ErrStreamClosed) {
					t.Errorf("queued AddBatch: err = %v, want ErrStreamClosed", got.err)
				}
				if got.running != "" {
					t.Errorf("a helper is still building after AddBatch returned:\n%s", got.running)
				}
				if p := <-flushed; (p != nil) != (how == "handler panics") {
					t.Errorf("the Flush whose commit fired the handler panicked with %v", p)
				}
				if how == "Close queued ahead" {
					if err := <-closed; err != nil {
						t.Errorf("Close: %v", err)
					}
				}
				wantGoroutines(t, "after the queued AddBatch failed", before)
			})
		}
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
