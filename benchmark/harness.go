package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir"
	"github.com/social-streams/ksir/internal/metrics"
)

// samples collects one class of latencies in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) { s.addValue(ms(d)) }

func (s *samples) addValue(v float64) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Float64s(s.v)
	return s.v
}

// percentile returns the nearest-rank p-th percentile of sorted values. ok
// is false when fewer than ten samples lie beyond it, the rule under which a
// tail may be reported (choosing-metrics §1); the median only needs a sample.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(float64(n)*p/100+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], p <= 50 || n-1-rank >= 10
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m, _ := percentile(s, 50)
	return m
}

// recorder is what the load clients of one measured phase write to.
type recorder struct {
	add, query, mtts, activation, refresh samples
	stepAdd                               [3]samples
	posts, queries                        atomic.Int64 // acked posts, answered queries
	addCalls                              atomic.Int64
	attempted, failed                     atomic.Int64
	wall                                  time.Duration

	errMu sync.Mutex
	err   error // first failed output check

	// maxLag and late are the paced dispatchers' health: the worst wake-up
	// delay behind the schedule and how many ops started after their due time
	// because the previous one was still running.
	maxLag atomic.Int64
	late   atomic.Int64
	paced  atomic.Int64
	// woke and wokeLate count the dispatchers' sleeps and those that
	// overslept by more than lagLimit.
	woke, wokeLate atomic.Int64
	// backlog is how many due posts serve-mixed's sender had not sent when
	// each step ended.
	backlog [3]int

	// Span recording (traced pass only) is on for two calls of a class and
	// off for the next two, so the same pass measures the service time of
	// calls with and without it. Calls rather than time slices, because a
	// time slice can beat with the program's own periodic work, its
	// checkpoints above all; pairs, because the clients alternate MTTD and
	// MTTS and single calls would put each algorithm on one side.
	spans *spanLog
	calls [2]atomic.Int64
	// svcNs[class] and svcUnits[class] sum the calls' service time and their
	// posts or queries; perUnit[class][on] holds each call's service time per
	// unit in µs, apart for the calls made with recording off and on.
	svcNs, svcUnits [2]atomic.Int64
	perUnit         [2][2]samples
}

const (
	classAdd = iota
	classQuery
)

func newRecorder(traced bool) *recorder {
	r := &recorder{}
	for _, s := range []*samples{&r.add, &r.query, &r.mtts, &r.activation} {
		s.v = make([]float64, 0, 1<<17)
	}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

// fail records a failed operation or output check; the first one is kept
// for the report.
func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

// op times one call into the service that carries units posts or queries,
// as a span when recording is on.
func (r *recorder) op(class, units int, fn func()) time.Duration {
	on := 0
	if r.spans != nil {
		on = int(r.calls[class].Add(1) / 2 % 2)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if on == 1 {
		r.spans.record([2]string{"add", "query"}[class], "", start, d)
	}
	r.svcNs[class].Add(int64(d))
	r.svcUnits[class].Add(int64(units))
	if class == classAdd {
		r.addCalls.Add(1)
	}
	if r.spans != nil {
		r.perUnit[class][on].addValue(us(d) / float64(units))
	}
	return d
}

// serviceUs is the measured phase's mean service time per post or query.
func (r *recorder) serviceUs(class int) float64 {
	units := r.svcUnits[class].Load()
	if units == 0 {
		return 0
	}
	return us(time.Duration(r.svcNs[class].Load())) / float64(units)
}

// traceOverheadPct compares the median service time of the calls made with
// span recording on with that of the calls made with it off, weighting the
// two classes by their share of the work. Medians, because a few calls
// carry a checkpoint and would decide a comparison of means by where they
// happened to fall.
func (r *recorder) traceOverheadPct() float64 {
	var on, off float64
	for c := range r.perUnit {
		mOn, _ := percentile(r.perUnit[c][1].sorted(), 50)
		mOff, _ := percentile(r.perUnit[c][0].sorted(), 50)
		weight := float64(r.svcUnits[c].Load())
		on += mOn * weight
		off += mOff * weight
	}
	if off == 0 {
		return 0
	}
	return 100 * (on - off) / off
}

// pace dispatches a schedule in order and one op at a time: it sleeps until
// offset i is due, calls op, and goes on at the index op returns (i+1, or
// further when the op took several due entries in one call). An op that is
// due while the previous one still runs starts late and is timed from its
// due time all the same, so a stall shows in every op scheduled during it.
func (r *recorder) pace(ctx context.Context, start time.Time, offsets []time.Duration, op func(i int, due time.Time) int) {
	for i := 0; i < len(offsets); {
		due := start.Add(offsets[i])
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
			r.wokeAt(due)
		} else {
			if ctx.Err() != nil {
				return
			}
			r.late.Add(1)
		}
		r.paced.Add(1)
		i = op(i, due)
	}
}

const lagLimit = 5 * time.Millisecond

// wokeAt accounts for a dispatcher waking from its sleep until due.
func (r *recorder) wokeAt(due time.Time) {
	lag := time.Since(due)
	if int64(lag) > r.maxLag.Load() {
		r.maxLag.Store(int64(lag))
	}
	r.woke.Add(1)
	if lag > lagLimit {
		r.wokeLate.Add(1)
	}
}

// bed is one set-up service: a durable hub in its own directory with every
// stream preloaded, plus the cursor of each stream's ordered sender.
type bed struct {
	in      *inputs
	root    string
	dir     string
	model   *ksir.Model
	hub     *ksir.Hub
	handles []*ksir.StreamHandle
	// next[s] is the index of stream s's next unsent post. Each stream has
	// one sender, so its posts go out in timeline order and none is refused
	// as out of order.
	next []int
	// heapBase is the live heap with the inputs built and the service not
	// yet started; heap_live_mb is measured against it.
	heapBase uint64
	// lastBucket[c] is the newest bucket query client c has seen.
	lastBucket [4]int64
}

func (s spec) persistOptions() ksir.PersistOptions {
	return ksir.PersistOptions{Fsync: s.fsync, MaxResidentStreams: s.resident}
}

func streamName(i int) string { return fmt.Sprintf("s%02d", i) }

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp generates the inputs, trains the model and preloads every stream:
// all that setup_s covers.
func setUp(s spec, seed int64, seconds float64, root string) (*bed, error) {
	in, err := generate(s, seed, seconds)
	if err != nil {
		return nil, err
	}
	b := &bed{in: in, root: root, next: make([]int, s.streams)}
	b.heapBase = liveHeap()
	b.model, err = ksir.TrainModel(in.texts, ksir.WithTopics(topics), ksir.WithIterations(trainIters), ksir.WithSeed(corpusSeed))
	if err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(root, "hub-"); err != nil {
		return nil, err
	}
	if b.hub, err = ksir.OpenHub(b.dir, b.model, s.persistOptions()); err != nil {
		return nil, err
	}
	for i := 0; i < s.streams; i++ {
		h, err := b.hub.Create(streamName(i), b.model, in.opts)
		if err != nil {
			return nil, err
		}
		b.handles = append(b.handles, h)
		for b.next[i] < s.preload {
			n := min(256, s.preload-b.next[i])
			if err := b.send(i, n); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		if s.resident == 0 {
			// Start measuring from a clean WAL, a full checkpoint interval
			// away from the next automatic checkpoint.
			if _, err := h.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := b.hub.EnforceResidency(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bed) close() error {
	err := b.hub.CloseAll()
	if rmErr := os.RemoveAll(b.dir); err == nil {
		err = rmErr
	}
	return err
}

// send adds the next n posts of stream s in one call.
func (b *bed) send(s, n int) error {
	posts := b.in.posts[b.next[s] : b.next[s]+n]
	got, err := b.handles[s].AddBatch(posts)
	if err == nil && got != n {
		err = fmt.Errorf("stream %d accepted %d of %d posts", s, got, n)
	}
	if err != nil {
		return fmt.Errorf("add at post %d: %w", posts[0].ID, err)
	}
	b.next[s] += n
	return nil
}

// addNext is one measured add call of up to n posts on stream s. It
// reports false once the stream's timeline is used up.
func (b *bed) addNext(r *recorder, s, n int) bool {
	if n = min(n, len(b.in.posts)-b.next[s]); n == 0 {
		return false
	}
	resident := b.handles[s].Resident()
	var err error
	d := r.op(classAdd, n, func() { err = b.send(s, n) })
	r.attempted.Add(1)
	switch {
	case err != nil:
		r.fail(err)
	case !resident:
		r.activation.add(d)
	default:
		r.add.add(d)
	}
	if err == nil {
		r.posts.Add(int64(n))
	}
	return true
}

// ask is one measured query by client c on stream s, timed from due when it
// is set (paced clients) and from the call otherwise.
func (b *bed) ask(ctx context.Context, r *recorder, c, s, i int, due time.Time) {
	q := b.in.queries[i%len(b.in.queries)]
	if i%2 == 1 {
		q.Algorithm = ksir.MTTS
	}
	h := b.handles[s]
	resident := h.Resident()
	var res ksir.Result
	var err error
	d := r.op(classQuery, 1, func() { res, err = h.Query(ctx, q) })
	if !due.IsZero() {
		d = time.Since(due)
	}
	if ctx.Err() != nil {
		return // the phase ended under this query
	}
	r.attempted.Add(1)
	if err == nil {
		err = checkResult(q, res)
	}
	if err == nil && b.in.spec.streams == 1 {
		if res.Bucket < b.lastBucket[c] {
			err = fmt.Errorf("query saw bucket %d after %d", res.Bucket, b.lastBucket[c])
		}
		b.lastBucket[c] = res.Bucket
	}
	switch {
	case err != nil:
		r.fail(err)
		return
	case !resident:
		r.activation.add(d)
	case q.Algorithm == ksir.MTTS:
		r.mtts.add(d)
	default:
		r.query.add(d)
	}
	r.queries.Add(1)
}

// checkResult is the per-answer output check: between one and min(k, active)
// distinct posts. MTTS and MTTD stop at their lowest threshold, so an answer
// may hold fewer than k posts; it may not be empty while posts are active.
func checkResult(q ksir.Query, res ksir.Result) error {
	if most := min(q.K, res.Active); len(res.Posts) == 0 || len(res.Posts) > most {
		return fmt.Errorf("query k=%d over %d active posts returned %d posts", q.K, res.Active, len(res.Posts))
	}
	for i, p := range res.Posts {
		for _, o := range res.Posts[:i] {
			if o.ID == p.ID {
				return fmt.Errorf("query returned post %d twice", p.ID)
			}
		}
	}
	return nil
}

// answer is what a restart must reproduce exactly.
type answer struct {
	ids    []int64
	score  float64
	bucket int64
}

func (a answer) equal(o answer) bool {
	if a.score != o.score || a.bucket != o.bucket || len(a.ids) != len(o.ids) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != o.ids[i] {
			return false
		}
	}
	return true
}

func pinnedAnswers(h *ksir.StreamHandle, queries []ksir.Query) ([]answer, error) {
	out := make([]answer, pinnedChecks)
	for i := range out {
		res, err := h.Query(context.Background(), queries[i])
		if err != nil {
			return nil, err
		}
		out[i] = answer{score: res.Score, bucket: res.Bucket}
		for _, p := range res.Posts {
			out[i].ids = append(out[i].ids, p.ID)
		}
	}
	return out, nil
}

const (
	recoveryTrials   = 5
	activationCycles = 9
	// tailBuckets is the WAL tail a closed-loop workload's crash image is
	// brought to: half a checkpoint interval, the tail a crash finds on
	// average. Where the producers stop is a matter of timing, and without
	// this recovery_ms would measure that instead of the program.
	tailBuckets = 32
)

// levelTail keeps adding to stream 0 until its WAL holds tailBuckets buckets.
func (b *bed) levelTail() error {
	for {
		st := b.handles[0].Stats()
		since := st.Bucket - max(st.Persist.CheckpointBucket, 0)
		if since == tailBuckets {
			return nil
		}
		// Single posts near the target, so that it is not stepped over.
		n := 8
		if since == tailBuckets-1 {
			n = 1
		}
		n = min(n, len(b.in.posts)-b.next[0])
		if n == 0 {
			return errors.New("timeline used up before the WAL tail was level")
		}
		if err := b.send(0, n); err != nil {
			return err
		}
	}
}

// restarts measures a restart: a copy of the data directory as a crash would
// leave it (nothing closed, the page cache intact) is opened with OpenHub and
// the hottest stream answers one query. Each pinned answer must then equal
// what the stream answered before the crash, so every acknowledged post is
// readable after the restart.
func (b *bed) restarts(r *recorder, trials int) ([]float64, error) {
	if b.in.spec.addRate == 0 {
		if err := b.levelTail(); err != nil {
			return nil, err
		}
	}
	if _, err := b.hub.EnforceResidency(); err != nil {
		return nil, err
	}
	want, err := pinnedAnswers(b.handles[0], b.in.queries)
	if err != nil {
		return nil, err
	}
	var ms []float64
	for t := 0; t < trials; t++ {
		img := filepath.Join(b.root, fmt.Sprintf("crash-%d", t))
		if err := copyTree(b.dir, img); err != nil {
			return nil, err
		}
		start := time.Now()
		hub, err := ksir.OpenHub(img, b.model, b.in.spec.persistOptions())
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		h, err := hub.Get(streamName(0))
		if err == nil {
			_, err = h.Query(context.Background(), b.in.queries[0])
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
		r.attempted.Add(1)
		var got []answer
		if err == nil {
			got, err = pinnedAnswers(h, b.in.queries)
		}
		for i := range got {
			if !got[i].equal(want[i]) {
				err = fmt.Errorf("restart changed the answer of pinned query %d: %v, was %v", i, got[i], want[i])
				break
			}
		}
		if err != nil {
			r.fail(err)
		}
		if err := hub.CloseAll(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(img); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// coldTouches hibernates the single stream and times the query that brings
// it back, activationCycles times: the cold-stream activation an operator
// feels on a workload whose traffic never lets the stream go cold.
func (b *bed) coldTouches(ctx context.Context, r *recorder) error {
	h := b.handles[0]
	for i := 0; i < activationCycles; i++ {
		if err := h.Hibernate(); err != nil {
			return fmt.Errorf("hibernate: %w", err)
		}
		start := time.Now()
		res, err := h.Query(ctx, b.in.queries[i])
		r.activation.add(time.Since(start))
		r.attempted.Add(1)
		if err == nil {
			err = checkResult(b.in.queries[i], res)
		}
		if err != nil {
			r.fail(err)
		}
	}
	return nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// scrape reads the program's own metric registry, the one /metrics serves,
// as a map from series to value.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	_ = metrics.Default().WriteText(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// counters is a point-in-time reading of every count the benchmark
// attributes to the measured phase.
type counters struct {
	reg     map[string]float64
	mem     runtime.MemStats
	cpu     time.Duration
	streams []ksir.StreamStats
}

func (b *bed) readCounters() counters {
	c := counters{reg: scrape(), cpu: cpuTime()}
	runtime.ReadMemStats(&c.mem)
	for _, h := range b.handles {
		c.streams = append(c.streams, h.Stats())
	}
	return c
}

// fsyncProbe is the median of 50 fsyncs of a 4 KiB write in dir, in µs: the
// device's share of every durable number in the same result file.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 50; i++ {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(us), nil
}
