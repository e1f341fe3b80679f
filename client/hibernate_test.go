package client

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/server"
)

// durableServer boots a durable hub-backed server over dir and returns an
// SDK client for it. The hub is returned too so crash tests can abandon it
// without the clean close.
func durableServer(t *testing.T, dir string, m *ksir.Model, po ksir.PersistOptions) (*Client, *ksir.Hub) {
	t.Helper()
	po.Fsync = ksir.FsyncNever
	hub, err := ksir.OpenHub(dir, m, po)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewHub(hub, m,
		ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { hub.CloseAll() })
	return New(srv.URL), hub
}

// loadLogicalCheckpoint reads a stream's on-disk checkpoint and strips the
// two kinds of state that vary run to run independently of hibernation:
// the wall-clock maintenance timers (they measure the hardware, not the
// history) and the arrival order of same-timestamp posts inside the window
// queue, which concurrent producers racing over HTTP make nondeterministic
// even on a server that never hibernates (the pipeline equivalence test
// compares query answers for the same reason). The window queue and the
// active list are re-sorted by ID; the archive, scores, counters and the
// rest stay exact.
func loadLogicalCheckpoint(t *testing.T, dir string) *persist.Checkpoint {
	t.Helper()
	ck, err := persist.LoadCheckpoint(filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint on disk")
	}
	ck.Core.Stats.UpdateTime = 0
	win := &ck.Core.Window
	// The archive is compared as the records and texts it holds; where
	// their frames sit in the log follows the order posts arrived in.
	arch, err := win.Archive.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Log != nil {
		ck.Log.Close()
	}
	win.Archive, win.ArchivedIDs, win.ArchivedMaxTS, ck.Log = arch, nil, 0, nil
	queue := win.Window
	sort.Slice(queue, func(i, j int) bool { return queue[i].ID < queue[j].ID })
	sort.Slice(win.Active, func(i, j int) bool { return win.Active[i].ID < win.Active[j].ID })
	return ck
}

// TestHibernationChurnSDK is the residency contract seen from the wire,
// run under -race: concurrent SDK producers and queriers race a hibernate
// hammer that keeps flipping the stream hot↔cold. Every per-op result must
// be exactly what a quiet stream would have returned, queries must
// transparently reactivate, and the final durable state must be identical
// (gob checkpoint, exact floats) to a twin server that never hibernated.
func TestHibernationChurnSDK(t *testing.T) {
	ctx := context.Background()
	m := testClientModel(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	churned, _ := durableServer(t, dirA, m, ksir.PersistOptions{})
	quiet, _ := durableServer(t, dirB, m, ksir.PersistOptions{})
	const producers = 6

	for _, c := range []*Client{churned, quiet} {
		if _, err := c.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "s", WindowSec: 3600, BucketSec: 60}); err != nil {
			t.Fatal(err)
		}
	}

	// Churned twin: producers, queriers and the hibernate hammer all at
	// once. producerOps asserts every per-op result itself (acceptance is
	// interleaving-independent by construction), so any answer distorted by
	// a residency transition fails loudly.
	var wgProd, wgBg sync.WaitGroup
	var stop atomic.Bool
	var hibernations atomic.Int64
	errs := make(chan error, producers+3)
	for p := 0; p < producers; p++ {
		wgProd.Add(1)
		go func(p int) {
			defer wgProd.Done()
			if err := producerOps(ctx, churned.Stream("s"), p); err != nil {
				errs <- err
			}
		}(p)
	}
	for q := 0; q < 2; q++ {
		wgBg.Add(1)
		go func() {
			defer wgBg.Done()
			for !stop.Load() {
				// No bucket has been published during the churn (all posts
				// share one timestamp and nothing flushes), so the only two
				// legal answers are an empty result or not_active — either
				// way the query must cross a reactivation without error.
				_, err := churned.Stream("s").Query(ctx, apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}})
				if err != nil && !errors.Is(err, ksir.ErrNotActive) {
					errs <- fmt.Errorf("churn query: %v", err)
					return
				}
			}
		}()
	}
	wgBg.Add(1)
	go func() {
		defer wgBg.Done()
		for !stop.Load() {
			info, err := churned.Stream("s").Hibernate(ctx)
			if err != nil {
				errs <- fmt.Errorf("churn hibernate: %v", err)
				return
			}
			if info.State != apiv1.StateHibernated {
				errs <- fmt.Errorf("hibernate returned state %q", info.State)
				return
			}
			hibernations.Add(1)
		}
	}()
	// Producers finish their fixed op sequences; then the hammer and the
	// queriers are told to stand down.
	wgProd.Wait()
	stop.Store(true)
	wgBg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hibernations.Load() == 0 {
		t.Fatal("the hammer never hibernated — churn did not exercise residency transitions")
	}

	// Quiet twin: the same operations, never hibernated.
	for p := 0; p < producers; p++ {
		if err := producerOps(ctx, quiet.Stream("s"), p); err != nil {
			t.Errorf("quiet twin: %v", err)
		}
	}

	// Same flush, then bit-identical query answers across the wire.
	for _, c := range []*Client{churned, quiet} {
		if _, err := c.Stream("s").Flush(ctx, 200); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range []apiv1.QueryRequest{
		{K: 10, Keywords: []string{"goal", "striker"}},
		{K: 5, Keywords: []string{"dunk"}, Algorithm: "mtts"},
		{K: 7, Keywords: []string{"league", "playoffs"}, Algorithm: "topk"},
	} {
		rc, err := churned.Stream("s").Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := quiet.Stream("s").Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rc, rq) {
			t.Errorf("query %+v diverges:\n churned %+v\n   quiet %+v", req, rc, rq)
		}
	}

	// Exact-state finale: hibernating the churned twin and checkpointing
	// the quiet one must leave logically identical checkpoints — same
	// window, same ranked-list tuples with bit-identical scores, same
	// pending buffer, same WAL watermark.
	if _, err := churned.Stream("s").Hibernate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Stream("s").Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	ckA, ckB := loadLogicalCheckpoint(t, dirA), loadLogicalCheckpoint(t, dirB)
	if !reflect.DeepEqual(ckA, ckB) {
		t.Fatalf("final checkpoints diverge after hibernation churn:\n churned %+v\n   quiet %+v", ckA, ckB)
	}

	// The hibernated stream stays listed, marked as such, with its
	// transition counters on the wire.
	list, err := churned.ListStreams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].State != apiv1.StateHibernated {
		t.Fatalf("hibernated stream not listed as such: %+v", list)
	}
	if r := list[0].Residency; r == nil || r.Hibernations == 0 || r.Activations == 0 || r.ResidentBytes != 0 {
		t.Fatalf("residency counters missing on the wire: %+v", list[0].Residency)
	}
}

// TestHibernateSDKErrors checks the wire mapping of the two refusals.
func TestHibernateSDKErrors(t *testing.T) {
	ctx := context.Background()
	m := testClientModel(t)

	// In-memory server: 409 persist_disabled.
	mem := pipelineServer(t, m)
	if _, err := mem.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "s"}); err != nil {
		t.Fatal(err)
	}
	_, err := mem.Stream("s").Hibernate(ctx)
	if !errors.Is(err, ksir.ErrPersistDisabled) {
		t.Fatalf("in-memory hibernate: %v, want ErrPersistDisabled", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != apiv1.CodePersistDisabled || apiErr.Status != 409 {
		t.Fatalf("wire shape: %+v", apiErr)
	}

	// Durable server with a standing query: 409 stream_busy.
	c, hub := durableServer(t, t.TempDir(), m, ksir.PersistOptions{})
	if _, err := c.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "s"}); err != nil {
		t.Fatal(err)
	}
	hs, err := hub.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := hs.Subscribe(context.Background(), ksir.Query{K: 3, Keywords: []string{"goal"}},
		time.Minute, func(ksir.Result) {})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Stream("s").Hibernate(ctx)
	if !errors.Is(err, ksir.ErrStreamBusy) {
		t.Fatalf("busy hibernate: %v, want ErrStreamBusy", err)
	}
	if !errors.As(err, &apiErr) || apiErr.Code != apiv1.CodeStreamBusy || apiErr.Status != 409 {
		t.Fatalf("wire shape: %+v", apiErr)
	}
	hs.Unsubscribe(sub)
	if _, err := c.Stream("s").Hibernate(ctx); err != nil {
		t.Fatalf("hibernate after unsubscribe: %v", err)
	}
}

// TestHibernateCrashRecoverySDK: a server crash right after (or torn
// during) a hibernation loses nothing — a new server over the same data
// dir, including one that finds a stray checkpoint.tmp from a torn
// replace, serves the stream exactly as before.
func TestHibernateCrashRecoverySDK(t *testing.T) {
	ctx := context.Background()
	m := testClientModel(t)
	dir := t.TempDir()
	c, hub := durableServer(t, dir, m, ksir.PersistOptions{})
	if _, err := c.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "s", WindowSec: 3600, BucketSec: 60}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := producerOps(ctx, c.Stream("s"), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Stream("s").Flush(ctx, 200); err != nil {
		t.Fatal(err)
	}
	req := apiv1.QueryRequest{K: 10, Keywords: []string{"goal", "striker"}}
	want, err := c.Stream("s").Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream("s").Hibernate(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash: the hub is abandoned (no CloseAll), and a torn checkpoint
	// replace left garbage behind.
	_ = hub // cleanup still closes it at test end; the new hub reads the dir now
	if err := os.WriteFile(filepath.Join(dir, "s", "checkpoint.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, _ := durableServer(t, dir, m, ksir.PersistOptions{})
	got, err := c2.Stream("s").Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-crash query diverges:\n got %+v\nwant %+v", got, want)
	}
}
