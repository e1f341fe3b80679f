package ksir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/score"
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
	// Lambda ∈ [0,1] trades semantic vs influence score; nil means the
	// default 0.5, so the paper's pure-influence setting is a pointer to 0.
	Lambda *float64
	// Eta rescales the influence score: finite and > 0 (default 20; use
	// larger values for retweet-heavy streams, the paper uses 200 for
	// Twitter).
	Eta float64
}

func (o *Options) fill() error {
	if o.Window == 0 {
		o.Window = 24 * time.Hour
	}
	if o.Bucket == 0 {
		o.Bucket = 15 * time.Minute
	}
	// A fresh pointer: the stream never shares λ with the caller's variable.
	lambda := 0.5
	if o.Lambda != nil {
		lambda = *o.Lambda
	}
	o.Lambda = &lambda
	if o.Eta == 0 {
		o.Eta = 20
	}
	if o.Window <= 0 || o.Bucket <= 0 || o.Bucket > o.Window {
		return fmt.Errorf("%w: need 0 < Bucket <= Window, got %v / %v", ErrBadOptions, o.Bucket, o.Window)
	}
	// Stream time counts whole seconds: a fraction would be truncated, and
	// a sub-second bucket truncates to a zero-length one.
	if o.Window%time.Second != 0 {
		return fmt.Errorf("%w: Window must be a whole number of seconds, got %v", ErrBadOptions, o.Window)
	}
	if o.Bucket%time.Second != 0 {
		return fmt.Errorf("%w: Bucket must be a whole number of seconds, got %v", ErrBadOptions, o.Bucket)
	}
	if math.IsNaN(lambda) || lambda < 0 || lambda > 1 {
		return fmt.Errorf("%w: lambda must be in [0,1], got %v", ErrBadOptions, lambda)
	}
	if !(o.Eta > 0) || math.IsInf(o.Eta, 1) { // NaN fails the comparison
		return fmt.Errorf("%w: eta must be finite and positive, got %v", ErrBadOptions, o.Eta)
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

// Query is a k-SIR query. Provide either Keywords, inferred into topic
// space, or an explicit topic-space Vector. Keywords serve every query
// paradigm of §3.2: a few keywords, a whole document's text, or a user's
// recent posts (personalized search) are all just words to infer from.
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

// engineStream is a stream's resident state: its engine and the pending
// buffer of the bucket being filled. Only the owning Stream's writer
// goroutine calls its write side (add, flush and what they call); query,
// explain and stats read the engine's published snapshot and are safe from
// any goroutine.
type engineStream struct {
	// model and engine are fixed at construction: elements and queries
	// live in one topic space for the stream's whole life (§3).
	model  *Model
	engine *core.Engine

	bucketLen stream.Time
	pending   []*stream.Element
	// pendingIDs mirrors pending for O(1) duplicate detection at Add time
	// (together with the window's active set), so a duplicate is rejected
	// before it can poison the bucket it would be batched into.
	pendingIDs map[stream.ElemID]struct{}
	// pendingBytes tracks the approximate heap footprint of the pending
	// buffer so the residency accounting stays O(1) per commit. Advisory,
	// never exported.
	pendingBytes int64
	lastTime     stream.Time

	// subs are the owning stream's standing queries, fired at every bucket
	// boundary; nil while the state is being loaded, before it belongs to
	// a Stream.
	subs *subscriptions
}

// newEngineStream wraps an engine built over m under resolved options
// (buildStream builds an empty one or restores one).
func newEngineStream(m *Model, eng *core.Engine, opts Options) *engineStream {
	return &engineStream{
		model:      m,
		engine:     eng,
		bucketLen:  stream.Time(opts.Bucket / time.Second),
		pendingIDs: make(map[stream.ElemID]struct{}),
	}
}

// clone copies resolved options, λ included, so writing through the
// copy's Lambda cannot reach the original.
func (o Options) clone() Options {
	lambda := *o.Lambda
	o.Lambda = &lambda
	return o
}

// engineConfig is the core engine configuration of a model under the
// stream's resolved options.
func engineConfig(m *Model, opts Options) core.Config {
	return core.Config{
		Model:        m.tm,
		WindowLength: stream.Time(opts.Window / time.Second),
		Params:       score.Params{Lambda: *opts.Lambda, Eta: opts.Eta},
	}
}

// add buffers the element of one post (see Stream.Add and Model.element),
// first ingesting every bucket that completes before the post's own. Only
// the checks against the stream — time, order, duplicate ID — and the
// pending append run here, under the stream's lock.
func (s *engineStream) add(e *stream.Element) error {
	if e.TS <= 0 {
		return fmt.Errorf("%w: post %d has non-positive time %d", ErrBadPost, e.ID, e.TS)
	}
	if e.TS < s.lastTime {
		return fmt.Errorf("%w: post %d at %d arrives after time %d", ErrOutOfOrder, e.ID, e.TS, s.lastTime)
	}
	// A bucket boundary that has been ingested (e.g. by Flush) is closed:
	// a post at or before it can never be ingested — reject it now as
	// out-of-order instead of poisoning the bucket it would be batched
	// into.
	if ingested := s.engine.Now(); e.TS <= ingested {
		return fmt.Errorf("%w: post %d at %d is at or before the last ingested boundary %d", ErrOutOfOrder, e.ID, e.TS, int64(ingested))
	}
	// Complete buckets before this post's bucket.
	if err := s.advanceTo(e.TS); err != nil {
		return err
	}
	if _, dup := s.pendingIDs[e.ID]; dup || s.engine.Window().Known(e.ID) {
		return fmt.Errorf("%w: duplicate post ID %d", ErrBadPost, e.ID)
	}
	s.pending = append(s.pending, e)
	s.pendingIDs[e.ID] = struct{}{}
	s.pendingBytes += e.ApproxBytes()
	s.lastTime = e.TS
	return nil
}

// advanceTo ingests completed buckets so that the pending buffer only holds
// elements of the bucket containing ts.
func (s *engineStream) advanceTo(ts stream.Time) error {
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
func (s *engineStream) bucketEnd() stream.Time {
	if len(s.pending) == 0 {
		return 0
	}
	first := s.pending[0].TS
	return ((first-1)/s.bucketLen + 1) * s.bucketLen
}

// flushBucket ingests all pending elements with TS ≤ end.
func (s *engineStream) flushBucket(end stream.Time) error {
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
	if err := s.ingest(end, batch); err != nil {
		return err
	}
	s.fireSubscriptions(int64(end))
	return nil
}

// ingest hands one bucket, just taken out of the pending buffer, to the
// engine. Either way it fails, the engine is left as it was.
//
// A bucket that resurrects an element the stream's element log could not
// give back is a durability failure (ErrPersist): the bucket goes back to
// the head of the pending buffer, where the Adds that accepted its posts —
// and logged them to a durable stream's WAL — left them, so the stream
// still holds exactly what its WAL replays to, and the next Add or Flush
// past the boundary retries it. Ordering and duplicates are pre-checked in
// add, so any other rejection is an internal invariant violation, and the
// bucket is dropped.
func (s *engineStream) ingest(end stream.Time, batch []*stream.Element) error {
	err := s.engine.Ingest(end, batch)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, stream.ErrArchiveRead):
		s.pending = append(batch, s.pending...)
		for _, e := range batch {
			s.pendingIDs[e.ID] = struct{}{}
			s.pendingBytes += e.ApproxBytes()
		}
		return fmt.Errorf("%w: %v", ErrPersist, err)
	default:
		return fmt.Errorf("%w: %v", ErrBadPost, err)
	}
}

// forgetPending drops a batch moving out of the pending buffer from the
// duplicate-detection set.
func (s *engineStream) forgetPending(batch []*stream.Element) {
	for _, e := range batch {
		delete(s.pendingIDs, e.ID)
		s.pendingBytes -= e.ApproxBytes()
	}
}

// flush ingests everything buffered up to and including time now (see
// Stream.Flush).
func (s *engineStream) flush(now int64) error {
	ts := stream.Time(now)
	if ts < s.lastTime {
		return fmt.Errorf("%w: flush time %d before last post %d", ErrOutOfOrder, now, s.lastTime)
	}
	if err := s.advanceTo(ts + 1); err != nil {
		return err
	}
	if len(s.pending) > 0 || ts > s.engine.Now() {
		batch := s.pending
		s.pending = nil
		s.forgetPending(batch)
		if err := s.ingest(ts, batch); err != nil {
			return err
		}
		s.fireSubscriptions(int64(ts))
	}
	s.lastTime = ts
	return nil
}

// approxResidentBytes estimates the heap bytes this state pins: the
// engine's elements, archived and live, plus the pending buffer. O(1) —
// both parts are maintained incrementally. Writer-side only; the commit
// path mirrors it into a lock-free counter on the Stream.
func (s *engineStream) approxResidentBytes() int64 {
	return s.engine.WriterResidentBytes() + s.pendingBytes
}

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
	// Persist, Pipeline and Residency report the durability counters
	// (Enabled=false unless the hub was opened with OpenHub), the commit
	// pipeline's and the hot/cold residency state's.
	Persist   PersistStats
	Pipeline  PipelineStats
	Residency ResidencyStats
}

// stats reads the engine counters of the published snapshot; the Stream
// adds its own.
func (s *engineStream) stats() StreamStats {
	es := s.engine.Stats()
	return StreamStats{
		Active:   s.engine.NumActive(),
		Now:      int64(s.engine.Now()),
		Bucket:   es.Buckets,
		Elements: es.ElementsIngested,
	}
}

// query answers q against the published snapshot (see Stream.Query); safe
// from any goroutine. ctx must not be nil.
func (s *engineStream) query(ctx context.Context, q Query) (Result, error) {
	if q.K <= 0 {
		return Result{}, fmt.Errorf("%w: query needs K > 0", ErrBadQuery)
	}
	x, err := queryVector(s.model, q)
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
	res, err := s.engine.QueryContext(ctx, core.Query{K: q.K, X: x, Epsilon: q.Epsilon, Algorithm: alg})
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
// against the stream's model.
func queryVector(m *Model, q Query) (topicmodel.TopicVec, error) {
	if len(q.Vector) > 0 {
		idx := make([]int, 0, len(q.Vector))
		for t, w := range q.Vector {
			if t < 0 || t >= m.tm.Z {
				return topicmodel.TopicVec{}, fmt.Errorf("%w: topic %d out of range [0,%d)", ErrBadQuery, t, m.tm.Z)
			}
			if !(w >= 0) { // negative or NaN
				return topicmodel.TopicVec{}, fmt.Errorf("%w: negative weight %v for topic %d", ErrBadQuery, w, t)
			}
			if w > 0 {
				idx = append(idx, t)
			}
		}
		// Sum in topic order, not map order: float addition is not
		// associative, and x must be the same bits on every call.
		sort.Ints(idx)
		var sum float64
		for _, t := range idx {
			sum += q.Vector[t]
		}
		if sum == 0 {
			return topicmodel.TopicVec{}, fmt.Errorf("%w: query vector is all zeros", ErrBadQuery)
		}
		if math.IsInf(sum, 1) {
			return topicmodel.TopicVec{}, fmt.Errorf("%w: query vector weights are not finite", ErrBadQuery)
		}
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
