package ksir

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Post is one social element as seen by producers: a timestamped text with
// references to earlier posts (retweet origins, cited papers, comment
// parents).
type Post struct {
	ID   int64
	Time int64 // unix seconds (any monotone integer clock works)
	Text string
	Refs []int64
}

// Options configures a Stream.
type Options struct {
	// Window is the sliding-window length T (default 24h).
	Window time.Duration
	// Bucket is the batch-update interval L (default 15min).
	Bucket time.Duration
	// Lambda ∈ [0,1] trades semantic vs influence score (default 0.5).
	//
	// Historical quirk: the zero value of this field means "use the
	// default", which makes the paper's pure-influence setting λ=0
	// unreachable through it. Pass WithLambda(0) to New to set λ
	// explicitly, including to zero.
	Lambda float64
	// Eta > 0 rescales the influence score (default 20; use larger values
	// for retweet-heavy streams, the paper uses 200 for Twitter).
	Eta float64
}

// StreamOption tunes a Stream beyond the core paper parameters of Options.
type StreamOption func(*streamConfig)

type streamConfig struct {
	lambda     float64
	lambdaSet  bool
	onSubError func(*Subscription, error)
}

// WithLambda sets λ explicitly, distinguishing λ=0 (pure influence) from
// "unset" — the Options.Lambda field cannot express that difference. It
// overrides Options.Lambda.
func WithLambda(l float64) StreamOption {
	return func(c *streamConfig) { c.lambda, c.lambdaSet = l, true }
}

// WithSubscriptionErrorHandler installs the stream-wide fallback hook for
// standing-query failures: any subscription refresh that errors and has no
// per-subscription OnError hook reports here. Failures never abort
// ingestion (see Subscribe).
func WithSubscriptionErrorHandler(h func(*Subscription, error)) StreamOption {
	return func(c *streamConfig) { c.onSubError = h }
}

func (o *Options) fill(cfg *streamConfig) error {
	if o.Window == 0 {
		o.Window = 24 * time.Hour
	}
	if o.Bucket == 0 {
		o.Bucket = 15 * time.Minute
	}
	if cfg.lambdaSet {
		o.Lambda = cfg.lambda
	} else if o.Lambda == 0 {
		o.Lambda = 0.5
	}
	if o.Eta == 0 {
		o.Eta = 20
	}
	if o.Window <= 0 || o.Bucket <= 0 || o.Bucket > o.Window {
		return fmt.Errorf("%w: need 0 < Bucket <= Window, got %v / %v", ErrBadOptions, o.Bucket, o.Window)
	}
	if math.IsNaN(o.Lambda) || o.Lambda < 0 || o.Lambda > 1 {
		return fmt.Errorf("%w: lambda must be in [0,1], got %v", ErrBadOptions, o.Lambda)
	}
	if o.Eta <= 0 {
		return fmt.Errorf("%w: eta must be positive, got %v", ErrBadOptions, o.Eta)
	}
	return nil
}

// Algorithm selects the query-processing algorithm.
type Algorithm int

const (
	// MTTD (Multi-Topic ThresholdDescend) is the default: best result
	// quality, (1 − 1/e − ε)-approximate.
	MTTD Algorithm = iota
	// MTTS (Multi-Topic ThresholdStream) evaluates each element at most
	// once, (1/2 − ε)-approximate.
	MTTS
	// TopK returns the k individually highest-scored elements (no
	// representativeness; provided for comparison).
	TopK
)

// Query is a k-SIR query. Provide either Keywords (inferred into topic
// space, the paper's query-by-keyword paradigm) or an explicit topic-space
// Vector (query-by-document / personalized paradigms).
type Query struct {
	K        int
	Keywords []string
	// Vector maps topic index → weight; it is normalized internally.
	Vector map[int]float64
	// Epsilon is the approximation knob ε (default 0.1).
	Epsilon float64
	// Algorithm defaults to MTTD.
	Algorithm Algorithm
}

// Result is a query answer.
type Result struct {
	// Posts are the selected elements in selection order.
	Posts []Post
	// Score is the representativeness f(S, x).
	Score float64
	// Evaluated and Active report the pruning effectiveness: how many of
	// the active elements the algorithm actually scored.
	Evaluated int
	Active    int
	// Bucket is the sequence number of the ingested bucket the query
	// observed; every field of the result is consistent with exactly that
	// bucket boundary (see Stream.Query for the visibility contract).
	Bucket int64
}

// Stream is a live k-SIR query processor over one social stream. Add posts
// in timestamp order; query at any time. Stream is safe for concurrent
// queries — including while Add/Flush is ingesting or SwapModel is
// rebuilding — because the engine publishes an immutable snapshot at every
// bucket boundary, queries run against the pinned snapshot without
// locking, and the (model, engine) pair itself is swapped atomically.
// Add/Flush/SwapModel themselves must be called from one goroutine (one
// writer, many readers).
type Stream struct {
	// me is the atomically-published (model, engine) pair: the writer
	// replaces it wholesale on SwapModel, readers load it once per
	// operation so a query never mixes an old model with a new engine.
	me   atomic.Pointer[modelEngine]
	opts Options
	cfg  streamConfig

	bucketLen stream.Time
	pending   []*stream.Element
	// pendingIDs mirrors pending for O(1) duplicate detection at Add time
	// (together with the window's active set), so a duplicate is rejected
	// before it can poison the bucket it would be batched into.
	pendingIDs map[stream.ElemID]struct{}
	// pendingBytes tracks the approximate heap footprint of the pending
	// buffer so the residency accounting stays O(1) per commit. Writer-side
	// only, advisory, never exported.
	pendingBytes int64
	lastTime     stream.Time

	subs   []*Subscription
	subSeq int64
	nsubs  atomic.Int64 // len(subs), readable off the writer goroutine
}

// modelEngine binds a topic model to the engine built over it.
type modelEngine struct {
	model  *Model
	engine *core.Engine
}

// New creates a Stream over a trained model. StreamOptions refine the core
// Options (and WithLambda overrides Options.Lambda, including to zero).
func New(m *Model, opts Options, sopts ...StreamOption) (*Stream, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadOptions)
	}
	var cfg streamConfig
	for _, o := range sopts {
		o(&cfg)
	}
	if err := opts.fill(&cfg); err != nil {
		return nil, err
	}
	eng, err := newEngineForModel(m, opts)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		opts:       opts,
		cfg:        cfg,
		bucketLen:  stream.Time(opts.Bucket / time.Second),
		pendingIDs: make(map[stream.ElemID]struct{}),
	}
	s.me.Store(&modelEngine{model: m, engine: eng})
	return s, nil
}

// Model returns the stream's current topic model (the one queries are
// inferred against; SwapModel replaces it).
func (s *Stream) Model() *Model { return s.me.Load().model }

// Options returns the stream's resolved options — every defaulted field
// filled in, and Lambda as actually configured (so WithLambda(0) reads
// back as 0).
func (s *Stream) Options() Options { return s.opts }

// Add appends one post to the stream. Posts must arrive in non-decreasing
// time order. The post is buffered and ingested when its bucket completes
// (or on Flush); queries observe it after that point, matching the paper's
// batch-update architecture (Figure 4).
func (s *Stream) Add(p Post) error {
	ts := stream.Time(p.Time)
	if ts <= 0 {
		return fmt.Errorf("%w: post %d has non-positive time %d", ErrBadPost, p.ID, p.Time)
	}
	if ts < s.lastTime {
		return fmt.Errorf("%w: post %d at %d arrives after time %d", ErrOutOfOrder, p.ID, p.Time, s.lastTime)
	}
	// A bucket boundary that has been ingested (e.g. by Flush) is closed:
	// a post at or before it can never be ingested — reject it now as
	// out-of-order instead of poisoning the bucket it would be batched
	// into. WriterNow includes boundaries whose snapshot publication is
	// deferred inside a commit batch (see beginApply), so the check does
	// not depend on how ops were batched.
	if ingested := s.me.Load().engine.WriterNow(); ts <= ingested {
		return fmt.Errorf("%w: post %d at %d is at or before the last ingested boundary %d", ErrOutOfOrder, p.ID, p.Time, int64(ingested))
	}
	// Complete buckets before this post's bucket.
	if err := s.advanceTo(ts); err != nil {
		return err
	}
	me := s.me.Load()
	id := stream.ElemID(p.ID)
	if _, dup := s.pendingIDs[id]; dup || me.engine.Window().Known(id) {
		return fmt.Errorf("%w: duplicate post ID %d", ErrBadPost, p.ID)
	}
	m := me.model
	ids := m.tokenIDs(p.Text)
	refs := make([]stream.ElemID, len(p.Refs))
	for i, r := range p.Refs {
		refs[i] = stream.ElemID(r)
	}
	e := &stream.Element{
		ID:     stream.ElemID(p.ID),
		TS:     ts,
		Doc:    textproc.NewDocument(ids),
		Topics: m.inf.InferDoc(ids),
		Refs:   refs,
		Text:   p.Text,
	}
	s.pending = append(s.pending, e)
	s.pendingIDs[id] = struct{}{}
	s.pendingBytes += e.ApproxBytes()
	s.lastTime = ts
	return nil
}

// AddBatch appends posts in order, stopping at the first rejected post. It
// returns how many posts were accepted; when err is non-nil the posts after
// the rejected one were not examined. Equivalent to calling Add in a loop,
// packaged for wire servers and bulk loaders.
func (s *Stream) AddBatch(posts []Post) (int, error) {
	for i, p := range posts {
		if err := s.Add(p); err != nil {
			return i, err
		}
	}
	return len(posts), nil
}

// advanceTo ingests completed buckets so that the pending buffer only holds
// elements of the bucket containing ts.
func (s *Stream) advanceTo(ts stream.Time) error {
	cur := s.bucketEnd()
	for cur != 0 && ts > cur {
		if err := s.flushBucket(cur); err != nil {
			return err
		}
		cur = s.bucketEnd()
	}
	return nil
}

// bucketEnd returns the end time of the bucket holding the oldest pending
// element (0 when nothing is pending).
func (s *Stream) bucketEnd() stream.Time {
	if len(s.pending) == 0 {
		return 0
	}
	first := s.pending[0].TS
	return ((first-1)/s.bucketLen + 1) * s.bucketLen
}

// flushBucket ingests all pending elements with TS ≤ end.
func (s *Stream) flushBucket(end stream.Time) error {
	var batch []*stream.Element
	rest := s.pending[:0]
	for _, e := range s.pending {
		if e.TS <= end {
			batch = append(batch, e)
		} else {
			rest = append(rest, e)
		}
	}
	s.pending = rest
	s.forgetPending(batch)
	if err := s.me.Load().engine.Ingest(end, batch); err != nil {
		// Ordering and duplicates are pre-checked in Add, so an engine
		// rejection here is an internal invariant violation.
		return fmt.Errorf("%w: %v", ErrBadPost, err)
	}
	s.fireSubscriptions(int64(end))
	return nil
}

// forgetPending drops a batch moving out of the pending buffer from the
// duplicate-detection set.
func (s *Stream) forgetPending(batch []*stream.Element) {
	for _, e := range batch {
		delete(s.pendingIDs, e.ID)
		s.pendingBytes -= e.ApproxBytes()
	}
}

// Flush ingests everything buffered up to and including time now, making it
// visible to queries. Use it at end of input or before an immediate query.
func (s *Stream) Flush(now int64) error {
	ts := stream.Time(now)
	if ts < s.lastTime {
		return fmt.Errorf("%w: flush time %d before last post %d", ErrOutOfOrder, now, s.lastTime)
	}
	if err := s.advanceTo(ts + 1); err != nil {
		return err
	}
	if len(s.pending) > 0 || ts > s.me.Load().engine.WriterNow() {
		batch := s.pending
		s.pending = nil
		s.forgetPending(batch)
		if err := s.me.Load().engine.Ingest(ts, batch); err != nil {
			return fmt.Errorf("%w: %v", ErrBadPost, err)
		}
		s.fireSubscriptions(int64(ts))
	}
	s.lastTime = ts
	return nil
}

// beginApply opens a deferred-publish bracket around the application of
// one coalesced commit batch (see StreamHandle's writer pipeline): buckets
// completed inside the bracket are applied to the writer's buffer but
// published as one snapshot at endApply, so a batch crossing several
// bucket boundaries costs one freeze/swap/drain cycle instead of one per
// bucket. Per-op results are unaffected — acceptance decisions read
// writer-side state (WriterNow, the shared archive), not the published
// snapshot.
//
// The bracket is skipped when standing queries are registered:
// subscription refreshes fire at each bucket boundary and query the
// published snapshot, so deferring publication would hand them stale
// results. Writer-side only, like Add and Flush.
func (s *Stream) beginApply() {
	if s.Subscriptions() > 0 {
		return
	}
	s.me.Load().engine.BeginBatch()
}

// endApply closes the bracket opened by beginApply, publishing any
// deferred buckets (a no-op when beginApply skipped the bracket).
func (s *Stream) endApply() {
	s.me.Load().engine.EndBatch()
}

// approxResidentBytes estimates the heap bytes this stream pins while
// resident: the engine's archived window state plus the pending buffer.
// O(1) — both parts are maintained incrementally. Writer-side only, like
// Add; the hub's commit path mirrors it into a lock-free handle counter.
func (s *Stream) approxResidentBytes() int64 {
	return s.me.Load().engine.WriterResidentBytes() + s.pendingBytes
}

// takeMaterialize returns and clears the timing of a write-path back
// buffer materialization, for span attribution in the hub's commit path.
func (s *Stream) takeMaterialize() (time.Time, time.Duration) {
	return s.me.Load().engine.TakeMaterialize()
}

// Now returns the stream's current time (the end of the last ingested
// bucket).
func (s *Stream) Now() int64 { return int64(s.me.Load().engine.Now()) }

// Active returns the number of active elements n_t.
func (s *Stream) Active() int { return s.me.Load().engine.NumActive() }

// StreamStats is a point-in-time summary of one stream, consistent with the
// last published bucket (the same snapshot queries observe).
type StreamStats struct {
	// Active is the number of elements in the sliding window, n_t.
	Active int
	// Now is the stream time of the last ingested bucket boundary.
	Now int64
	// Bucket is the published bucket sequence number (Result.Bucket of a
	// query issued now).
	Bucket int64
	// Subscriptions is the number of standing queries registered.
	Subscriptions int
	// Elements is the total number of elements ingested over the stream's
	// lifetime (expired ones included).
	Elements int64
	// Persist reports the durability counters. It is only populated by
	// StreamHandle.Stats on a hub opened with OpenHub (Enabled=false
	// otherwise — a raw Stream has no persistence).
	Persist PersistStats
	// Pipeline reports the writer-pipeline counters (queue depth, commit
	// batches, fsyncs). It is only populated by StreamHandle.Stats — a raw
	// Stream has no pipeline.
	Pipeline PipelineStats
	// Residency reports the hot/cold residency state and counters of a
	// hub-managed stream. It is only populated by StreamHandle.Stats — a
	// raw Stream is always resident and has no residency machinery.
	Residency ResidencyStats
}

// Stats reports the stream's current counters. Like Query it reads the
// published snapshot and is safe to call concurrently with ingestion.
func (s *Stream) Stats() StreamStats {
	eng := s.me.Load().engine
	es := eng.Stats()
	return StreamStats{
		Active:        eng.NumActive(),
		Now:           int64(eng.Now()),
		Bucket:        es.Buckets,
		Subscriptions: s.Subscriptions(),
		Elements:      es.ElementsIngested,
	}
}

// Query answers a k-SIR query against the currently ingested window.
//
// Snapshot visibility: a query observes exactly the state at the end of the
// last ingested bucket — the paper's batch-update contract (Figure 4) made
// concurrency-safe. The query pins that snapshot for its whole run, so it
// is safe to call from any number of goroutines concurrently with Add and
// Flush; a query that races an in-flight bucket sees either the bucket
// before it or (once ingest completes and publishes) the bucket itself,
// never a partial state. Result.Bucket reports which bucket was observed.
// Posts buffered in the current, incomplete bucket are not yet visible —
// call Flush to force them in.
//
// Cancellation: ctx is polled between ranked-list descents; a cancelled or
// expired context aborts the query with ctx.Err() (unwrapped) and releases
// the snapshot promptly. A nil ctx is treated as context.Background().
func (s *Stream) Query(ctx context.Context, q Query) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.K <= 0 {
		return Result{}, fmt.Errorf("%w: query needs K > 0", ErrBadQuery)
	}
	me := s.me.Load()
	x, err := queryVector(me.model, q)
	if err != nil {
		return Result{}, err
	}
	var alg core.Algorithm
	switch q.Algorithm {
	case MTTD:
		alg = core.MTTD
	case MTTS:
		alg = core.MTTS
	case TopK:
		alg = core.TopkRep
	default:
		return Result{}, fmt.Errorf("%w: unknown algorithm %d", ErrBadQuery, q.Algorithm)
	}
	res, err := me.engine.QueryContext(ctx, core.Query{K: q.K, X: x, Epsilon: q.Epsilon, Algorithm: alg})
	if err != nil {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		return Result{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	out := Result{
		Score:     res.Score,
		Evaluated: res.Evaluated,
		Active:    res.ActiveAtQuery,
		Bucket:    res.BucketSeq,
	}
	for _, e := range res.Elements {
		out.Posts = append(out.Posts, Post{
			ID:   int64(e.ID),
			Time: int64(e.TS),
			Text: e.Text,
			Refs: refsToInt64(e.Refs),
		})
	}
	return out, nil
}

// queryVector builds the normalized topic vector from Keywords or Vector
// against one consistent model (callers load the Stream's pair once so a
// concurrent SwapModel cannot mix models mid-query).
func queryVector(m *Model, q Query) (topicmodel.TopicVec, error) {
	if len(q.Vector) > 0 {
		idx := make([]int, 0, len(q.Vector))
		var sum float64
		for t, w := range q.Vector {
			if t < 0 || t >= m.tm.Z {
				return topicmodel.TopicVec{}, fmt.Errorf("%w: topic %d out of range [0,%d)", ErrBadQuery, t, m.tm.Z)
			}
			if !(w >= 0) { // negative or NaN
				return topicmodel.TopicVec{}, fmt.Errorf("%w: negative weight %v for topic %d", ErrBadQuery, w, t)
			}
			if w > 0 {
				idx = append(idx, t)
				sum += w
			}
		}
		if sum == 0 {
			return topicmodel.TopicVec{}, fmt.Errorf("%w: query vector is all zeros", ErrBadQuery)
		}
		if math.IsInf(sum, 1) {
			return topicmodel.TopicVec{}, fmt.Errorf("%w: query vector weights are not finite", ErrBadQuery)
		}
		sort.Ints(idx)
		v := topicmodel.TopicVec{
			Topics: make([]int32, len(idx)),
			Probs:  make([]float64, len(idx)),
		}
		for i, t := range idx {
			v.Topics[i] = int32(t)
			v.Probs[i] = q.Vector[t] / sum
		}
		return v, nil
	}
	if len(q.Keywords) == 0 {
		return topicmodel.TopicVec{}, fmt.Errorf("%w: query needs Keywords or Vector", ErrBadQuery)
	}
	var ids []textproc.WordID
	for _, kw := range q.Keywords {
		ids = append(ids, m.tokenIDs(kw)...)
	}
	x := m.inf.InferDense(ids).Truncate(8, 0.02)
	if x.Len() == 0 {
		return topicmodel.TopicVec{}, fmt.Errorf("%w: no query keyword appears in the model vocabulary", ErrBadQuery)
	}
	return x, nil
}

func refsToInt64(refs []stream.ElemID) []int64 {
	if len(refs) == 0 {
		return nil
	}
	out := make([]int64, len(refs))
	for i, r := range refs {
		out[i] = int64(r)
	}
	return out
}
