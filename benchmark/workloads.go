package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/internal/server"
)

// drive runs one workload's measured phase against a set-up bed for the
// given time and returns when every client has stopped.
type drive func(ctx context.Context, b *bed, r *recorder, d time.Duration) error

var drives = map[string]drive{
	"ingest-firehose": firehose,
	"query-storm":     storm,
	"serve-mixed":     serve,
	"tenant-churn":    churn,
}

// pacedReader issues the schedule's queries on stream 0, alternating MTTD
// and MTTS, as client c.
func pacedReader(ctx context.Context, b *bed, r *recorder, c int, start time.Time) {
	r.pace(ctx, start, b.in.queryOffsets, func(i int, due time.Time) int {
		b.ask(ctx, r, c, 0, i, due)
		return i + 1
	})
}

// closedCalls is how many add calls a closed-loop producer makes in a phase
// asked to last d, and the deadline that stops it on a machine too slow to
// get there in reasonable time.
func closedCalls(s spec, d time.Duration) (int, time.Duration) {
	return int(s.closedRate * d.Seconds() / float64(s.addBatch)), 5 * d / 2
}

// firehose: one closed-loop producer saturates the write path with
// AddBatch calls; one paced reader keeps the read path barely busy.
func firehose(ctx context.Context, b *bed, r *recorder, d time.Duration) error {
	calls, deadline := closedCalls(b.in.spec, d)
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		pacedReader(ctx, b, r, 0, start)
	}()
	for i := 0; i < calls && ctx.Err() == nil && b.addNext(r, 0, b.in.spec.addBatch); i++ {
	}
	r.wall = time.Since(start)
	cancel()
	wg.Wait()
	return nil
}

// storm: one closed-loop query client saturates the read path while one
// paced writer adds single posts, so a new snapshot publishes about once a
// second. One client, not one per core: the second core is the writer's, the
// pipeline's and the collector's, and a query's latency is then the
// program's and not the scheduler's.
func storm(ctx context.Context, b *bed, r *recorder, d time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			b.ask(ctx, r, 0, 0, i, time.Time{})
		}
	}()
	gap := time.Duration(float64(time.Second) / b.in.spec.addRate)
	offsets := make([]time.Duration, int(d/gap))
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	r.pace(ctx, start, offsets, func(i int, _ time.Time) int {
		b.addNext(r, 0, 1)
		return i + 1
	})
	<-ctx.Done()
	r.wall = time.Since(start)
	wg.Wait()
	return nil
}

// churn: one closed-loop client works through a fixed list of operations
// over many more streams than the residency budget holds: an add that
// continues one stream's timeline, then a query of another, both streams
// drawn by Zipf. An op that finds its stream hibernated is an activation
// sample, the others add and query samples. One client, so that the order of
// the operations, and with it what the residency policy sees, is the input's
// and not the scheduler's.
func churn(ctx context.Context, b *bed, r *recorder, d time.Duration) error {
	calls, deadline := closedCalls(b.in.spec, d)
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	adds, asks := b.in.draws[0], b.in.draws[1]
	start := time.Now()
	for i := 0; i < calls && ctx.Err() == nil; i++ {
		// A stream whose timeline is used up is skipped: its posts are all in.
		b.addNext(r, adds[i%len(adds)], b.in.spec.addBatch)
		b.ask(ctx, r, 1, asks[i%len(asks)], i, time.Time{})
	}
	r.wall = time.Since(start)
	return nil
}

// serve: the whole service over loopback HTTP, open loop. One ordered sender
// follows the three-step Poisson schedule and sends every post already due
// in one call; a second client issues paced queries; one SSE subscription
// timestamps each refresh. Latencies count from each op's due time.
func serve(ctx context.Context, b *bed, r *recorder, d time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	api := server.NewHub(b.hub, b.model, b.in.opts)
	srv := &http.Server{Handler: api}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(ln) }()
	cl := client.New("http://" + ln.Addr().String()).Stream(streamName(0))

	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	in := b.in
	live := in.posts[in.spec.preload:]
	// closedAt[seq] is when the call that closed bucket seq was sent.
	var mu sync.Mutex
	closedAt := make(map[int64]time.Time)
	tracker := newBucketTracker(in.opts, b.handles[0].Stats().Bucket, in.posts[in.spec.preload-1].Time)

	var wg sync.WaitGroup
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64 = -1
		err := cl.Subscribe(subCtx, client.SubscribeRequest{K: 10, Keywords: in.queries[0].Keywords}, func(ev client.Event) error {
			now := time.Now()
			if ev.Type != "refresh" {
				return nil
			}
			if ev.Bucket <= last {
				r.fail(fmt.Errorf("SSE refresh for bucket %d after bucket %d", ev.Bucket, last))
			}
			last = ev.Bucket
			mu.Lock()
			sent, ok := closedAt[ev.Bucket]
			mu.Unlock()
			if ok {
				r.refresh.add(now.Sub(sent))
			}
			return nil
		})
		if err != nil && subCtx.Err() == nil {
			r.fail(fmt.Errorf("subscribe: %w", err))
		}
	}()
	// The subscription registers through the writer pipeline; measuring
	// starts once the stream counts it.
	for wait := time.Now(); b.handles[0].Stats().Subscriptions == 0; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 5*time.Second {
			return errors.New("the SSE subscription did not register")
		}
	}

	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.pace(ctx, start, in.queryOffsets, func(i int, due time.Time) int {
			serveQuery(ctx, cl, b, r, i, due)
			return i + 1
		})
	}()

	step := 0
	r.pace(ctx, start, in.offsets, func(i int, _ time.Time) int {
		elapsed := time.Since(start)
		j := i + 1
		for j < len(live) && j-i < 256 && in.offsets[j] <= elapsed {
			j++
		}
		for step < 2 && elapsed >= d/3*time.Duration(step+1) {
			r.backlog[step] = max(0, in.stepEnd[step]-i)
			step++
		}
		batch := make([]apiv1.Post, j-i)
		for k, p := range live[i:j] {
			batch[k] = apiv1.Post{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}
		}
		sent := time.Now()
		mu.Lock()
		for _, p := range batch {
			if seq, closed := tracker.add(p.Time); closed {
				closedAt[seq] = sent
			}
		}
		mu.Unlock()
		var got int
		var err error
		r.op(classAdd, len(batch), func() { got, err = cl.Add(ctx, batch...) })
		acked := time.Now()
		if ctx.Err() != nil {
			return j // the phase ended under this call
		}
		r.attempted.Add(1)
		if err == nil && got != len(batch) {
			err = fmt.Errorf("server accepted %d of %d posts", got, len(batch))
		}
		if err != nil {
			r.fail(fmt.Errorf("add at post %d: %w", batch[0].ID, err))
			return j
		}
		r.posts.Add(int64(len(batch)))
		for k := i; k < j; k++ {
			s := 0
			for s < 2 && k >= in.stepEnd[s] {
				s++
			}
			r.stepAdd[s].add(acked.Sub(start.Add(in.offsets[k])))
		}
		b.next[0] = in.spec.preload + j
		return j
	})
	for k := b.next[0] - in.spec.preload; k < len(in.offsets) && in.offsets[k] <= time.Since(start); k++ {
		r.backlog[2]++
	}
	<-ctx.Done()
	r.wall = time.Since(start)
	// The 2R step is the end-to-end add latency; the others are the rate
	// ladder's first and last rung.
	r.add.v = append(r.add.v, r.stepAdd[1].v...)

	subCancel()
	wg.Wait()
	api.StopSubscriptions()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-srvDone; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func serveQuery(ctx context.Context, cl *client.Stream, b *bed, r *recorder, i int, due time.Time) {
	q := b.in.queries[i%len(b.in.queries)]
	req := apiv1.QueryRequest{K: q.K, Keywords: q.Keywords, Epsilon: q.Epsilon}
	if i%2 == 1 {
		req.Algorithm = "mtts"
	}
	var resp apiv1.QueryResponse
	var err error
	r.op(classQuery, 1, func() { resp, err = cl.Query(ctx, req) })
	d := time.Since(due)
	if ctx.Err() != nil {
		return
	}
	r.attempted.Add(1)
	if err == nil {
		err = checkResult(q, ksir.Result{Posts: resp.Posts, Active: resp.Active})
	}
	if err == nil && resp.Bucket < b.lastBucket[0] {
		err = fmt.Errorf("query saw bucket %d after %d", resp.Bucket, b.lastBucket[0])
	}
	if err != nil {
		r.fail(err)
		return
	}
	b.lastBucket[0] = resp.Bucket
	if i%2 == 1 {
		r.mtts.add(d)
	} else {
		r.query.add(d)
	}
	r.queries.Add(1)
}

// bucketTracker mirrors how a stream closes buckets, from the sender's side:
// the bucket holding the oldest unflushed post is ingested, and the bucket
// sequence number advances, when the first post beyond its end arrives.
type bucketTracker struct {
	bucket int64 // bucket length in clock units
	seq    int64 // sequence number of the last closed bucket
	end    int64 // end of the open bucket; 0 when no post is pending
}

// newBucketTracker starts from a stream whose published bucket is seq and
// whose newest unflushed post, if any, is at time pending.
func newBucketTracker(opts ksir.Options, seq, pending int64) *bucketTracker {
	t := &bucketTracker{bucket: int64(opts.Bucket / time.Second), seq: seq}
	if pending > 0 {
		t.end = t.endOf(pending)
	}
	return t
}

func (t *bucketTracker) endOf(ts int64) int64 { return ((ts-1)/t.bucket + 1) * t.bucket }

// add accounts for one post sent at stream time ts and reports the sequence
// number of the bucket it closed, if it closed one.
func (t *bucketTracker) add(ts int64) (seq int64, closed bool) {
	if t.end != 0 && ts > t.end {
		t.seq++
		seq, closed = t.seq, true
	}
	if t.end == 0 || closed {
		t.end = t.endOf(ts)
	}
	return seq, closed
}
