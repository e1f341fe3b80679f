package client

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/internal/server"
)

// pipelineServer boots a hub-backed server over the shared test model and
// returns an SDK client.
func pipelineServer(t *testing.T, m *ksir.Model) *Client {
	t.Helper()
	hub := ksir.NewHub()
	srv := httptest.NewServer(server.NewHub(hub, m,
		ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { hub.CloseAll() })
	return New(srv.URL)
}

// producerOps drives one producer's deterministic op sequence through the
// SDK and asserts each per-op result. All posts share one timestamp, so
// acceptance is independent of cross-producer interleaving: a post is
// accepted iff its ID is new, and every rejection below is a
// self-duplicate whose outcome no other producer can change.
func producerOps(ctx context.Context, s *Stream, p int) error {
	base := int64(p*1000 + 1)
	// Singles: n accepted posts.
	for i := int64(0); i < 8; i++ {
		if n, err := s.Add(ctx, apiv1.Post{ID: base + i, Time: 100, Text: "goal striker league"}); err != nil || n != 1 {
			return fmt.Errorf("producer %d add %d: n=%d err=%v", p, i, n, err)
		}
	}
	// Self-duplicate: must map back to ksir.ErrBadPost across the wire.
	if _, err := s.Add(ctx, apiv1.Post{ID: base, Time: 100, Text: "goal"}); !errors.Is(err, ksir.ErrBadPost) {
		return fmt.Errorf("producer %d duplicate: err=%v, want ErrBadPost", p, err)
	}
	// Batch with an internal self-duplicate: exact accepted prefix.
	batch := []apiv1.Post{
		{ID: base + 100, Time: 100, Text: "dunk rebound playoffs"},
		{ID: base + 1, Time: 100, Text: "goal"}, // already ingested above
		{ID: base + 101, Time: 100, Text: "never examined"},
	}
	if n, err := s.Add(ctx, batch...); !errors.Is(err, ksir.ErrBadPost) || n != 1 {
		return fmt.Errorf("producer %d batch: n=%d err=%v, want n=1 ErrBadPost", p, n, err)
	}
	return nil
}

// TestPipelineSDKEquivalence is the writer-pipeline contract seen from the
// wire (run under -race): concurrent producers pushing through the SDK —
// whose requests coalesce into commit batches server-side — observe
// per-op results identical to a lone producer issuing the same operations
// one at a time (every commit batch a single op), and the final stream
// state matches that serial run bit for bit.
func TestPipelineSDKEquivalence(t *testing.T) {
	ctx := context.Background()
	m := testClientModel(t)
	piped := pipelineServer(t, m)
	serial := pipelineServer(t, m)
	const producers = 8

	for _, c := range []*Client{piped, serial} {
		if _, err := c.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "s", WindowSec: 3600, BucketSec: 60}); err != nil {
			t.Fatal(err)
		}
	}

	// Pipelined: all producers concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := producerOps(ctx, piped.Stream("s"), p); err != nil {
				errs <- err
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Serial reference: the same operations, one after another.
	for p := 0; p < producers; p++ {
		if err := producerOps(ctx, serial.Stream("s"), p); err != nil {
			t.Errorf("serial reference: %v", err)
		}
	}

	// Same flush, then bit-identical query answers.
	for _, c := range []*Client{piped, serial} {
		if _, err := c.Stream("s").Flush(ctx, 200); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range []apiv1.QueryRequest{
		{K: 10, Keywords: []string{"goal", "striker"}},
		{K: 5, Keywords: []string{"dunk"}, Algorithm: "mtts"},
		{K: 7, Keywords: []string{"league", "playoffs"}, Algorithm: "topk"},
	} {
		rp, err := piped.Stream("s").Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := serial.Stream("s").Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rp, rs) {
			t.Errorf("query %+v diverges:\n pipelined %+v\n    serial %+v", req, rp, rs)
		}
	}

	// The stats block surfaces the pipeline: every op committed, and the
	// serial twin reports batches == ops (a lone producer's op is the
	// whole in-flight population, so nothing coalesces).
	ip, err := piped.Stream("s").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Pipeline == nil || ip.Pipeline.Ops == 0 || ip.Pipeline.Batches == 0 {
		t.Fatalf("pipelined stats missing pipeline block: %+v", ip.Pipeline)
	}
	if ip.Pipeline.MeanBatchSize < 1 {
		t.Errorf("mean batch size %v < 1", ip.Pipeline.MeanBatchSize)
	}
	is, err := serial.Stream("s").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if is.Pipeline == nil || is.Pipeline.Ops != is.Pipeline.Batches {
		t.Errorf("lone producer's ops coalesced: %+v", is.Pipeline)
	}
}
