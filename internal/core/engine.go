// Package core implements the paper's primary contribution: the k-SIR query
// engine of §4 — per-topic ranked-list maintenance over the sliding window
// (Algorithm 1) and the two real-time approximation algorithms MTTS
// (Algorithm 2, (1/2 − ε)-approximate) and MTTD (Algorithm 3,
// (1 − 1/e − ε)-approximate).
//
// The engine separates an ingest path from a read path (DESIGN.md §6): the
// writer maintains a private back buffer — window, scorer and the Z ranked
// lists, updated in one sequential pass on the writer's own goroutine — and
// at the end of every bucket publishes an immutable snapshot through an
// atomic pointer. Queries pin the published snapshot and traverse it with
// zero locking, so they never block behind ingest and always observe exactly
// one bucket boundary.
//
// The retired buffer catches up on the bucket it missed by structural
// delta replay (DESIGN.md §9): the primary application records the net
// window, scorer-cache and ranked-list operations it performed
// (bucketDelta), and recycling replays them verbatim — no re-scoring, no
// second pass through score.Scorer — leaving the recycled buffer
// byte-identical to the published front.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Config configures an Engine.
type Config struct {
	// Model is the trained topic model used as the scoring oracle.
	Model *topicmodel.Model
	// WindowLength is T, the sliding-window length in stream time units.
	WindowLength stream.Time
	// Params are the scoring trade-offs λ and η.
	Params score.Params
}

// Stats aggregates maintenance counters for the scalability experiments
// (Figure 14 reports update time per arriving element).
type Stats struct {
	ElementsIngested int64
	Buckets          int64
	// UpdateTime is the wall time spent applying buckets to the back
	// buffer: window advance, rescoring, and ranked-list maintenance,
	// counted once per bucket. This is the paper's Figure-14 cost; the
	// catch-up on the recycled buffer is counted separately in ReplayTime,
	// and the wait for readers to drain (reader latency, not maintenance)
	// is counted nowhere.
	UpdateTime time.Duration
	// ReplayTime is the wall time spent bringing recycled buffers up to
	// the published front by delta replay. It lags UpdateTime by one bucket
	// (a bucket's catch-up runs at the start of the next Ingest).
	ReplayTime  time.Duration
	ListUpserts int64
	ListDeletes int64
}

// UpdateTimePerElement returns the average primary maintenance time per
// arriving element (the Figure 14 metric).
func (s Stats) UpdateTimePerElement() time.Duration {
	if s.ElementsIngested == 0 {
		return 0
	}
	return s.UpdateTime / time.Duration(s.ElementsIngested)
}

// ShardStats is what is left of the per-shard counters of the deleted
// worker pool: the frozen benchmark/ module sums Busy over
// Engine.ShardStats() for core.shard_busy_share. Busy is the wall time of
// the ranked-list pass (maintainLists), the share of UpdateTime that is
// list work rather than window advance and rescoring.
type ShardStats struct {
	Busy time.Duration
}

// buffer is one complete copy of the mutable engine state. The engine keeps
// two: the published one backs the read path, the other is the writer's
// working copy (DESIGN.md §6).
type buffer struct {
	win    *stream.ActiveWindow
	scorer *score.Scorer
	lists  []*rankedlist.List
	frozen []*rankedlist.Snapshot // set while this buffer is published
}

func newBuffer(cfg Config) (*buffer, error) {
	win := stream.NewActiveWindow(cfg.WindowLength)
	scorer, err := score.NewScorer(cfg.Model, win, cfg.Params)
	if err != nil {
		return nil, err
	}
	lists := make([]*rankedlist.List, cfg.Model.Z)
	for i := range lists {
		lists[i] = rankedlist.New()
	}
	return &buffer{win: win, scorer: scorer, lists: lists}, nil
}

// freeze publishes the buffer's lists as immutable snapshots.
func (b *buffer) freeze() {
	b.frozen = make([]*rankedlist.Snapshot, len(b.lists))
	for i, l := range b.lists {
		b.frozen[i] = l.Freeze()
	}
}

// thaw releases the snapshots for in-place mutation again. Only legal once
// every reader pinning this buffer's engine snapshot has released it.
func (b *buffer) thaw() {
	for _, l := range b.lists {
		l.Thaw()
	}
	b.frozen = nil
}

// pendingBucket is a bucket applied to one buffer but not yet replayed onto
// the other: its boundary and the structural delta the application recorded.
type pendingBucket struct {
	now   stream.Time
	delta *bucketDelta
}

// Engine is the k-SIR query processor (Figure 4). Ingest is serialized (one
// writer); queries may run concurrently with each other and with Ingest —
// each query pins the engine snapshot published at the last bucket boundary
// and never blocks behind the writer.
type Engine struct {
	cfg Config

	mu    sync.Mutex // serializes Ingest (the writer side)
	front atomic.Pointer[snapshot]

	// Writer-owned state (guarded by mu):
	back     *buffer   // working copy; nil after a lazy Restore until materialized
	backSnap *snapshot // retired snapshot whose buffer is back; drained before reuse
	// lazy is the retained restore state of an unmaterialized back buffer
	// (non-nil exactly while back is nil). It is safe to rebuild from
	// later because materialization always runs before the first
	// post-restore bucket application — the published front is still
	// byte-identical to the state the buffer is rebuilt from.
	lazy *State
	// matStart/matDur hand the ingest-path materialization timing to the
	// hub's commit path for span attribution (TakeMaterialize). Written
	// only under mu on the ingest path; an explicit MaterializeBack (the
	// background path) leaves them untouched — its caller owns the timing.
	matStart time.Time
	matDur   time.Duration
	// replayQ holds the buckets applied to the published buffer but not
	// yet replayed onto back — exactly one outside a deferred-publish
	// batch, up to the whole batch inside one.
	replayQ []*pendingBucket
	// unpublished holds buckets already applied to back but not yet
	// visible to readers (non-empty only between BeginBatch and the
	// publish in EndBatch).
	unpublished []*pendingBucket
	batching    bool           // inside a BeginBatch/EndBatch bracket
	spentDeltas []*bucketDelta // replayed deltas, recycled by newBucketDelta
	stats       Stats
	listBusy    time.Duration // wall time spent in maintainLists
}

// NewEngine validates the configuration and returns an empty engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: config needs a topic model")
	}
	if cfg.WindowLength <= 0 {
		return nil, fmt.Errorf("core: window length must be positive, got %d", cfg.WindowLength)
	}
	a, err := newBuffer(cfg)
	if err != nil {
		return nil, err
	}
	b, err := newBuffer(cfg)
	if err != nil {
		return nil, err
	}
	// The twin windows advance in lockstep (primary apply on one, delta
	// replay on the other), so the writer-path-only structures — archive,
	// last-ref times, expiry heap — exist once and replay skips
	// maintaining them.
	stream.ShareWriterState(a.win, b.win)
	g := &Engine{cfg: cfg, back: b}
	a.freeze()
	g.front.Store(newSnapshot(a, g.stats, g.listBusy))
	return g, nil
}

// NumShards is always 1: the ranked lists are maintained in one pass on the
// writer goroutine. Kept, with ShardStats, only because the frozen
// benchmark/ module divides by it; both go when a benchmark PR drops them.
func (g *Engine) NumShards() int { return 1 }

// Window exposes the published window for read-only use by baselines and
// metrics. Callers must not mutate it, and must not retain it across more
// than one subsequent Ingest (the buffer behind it is recycled). The
// snapshot-stability caveat of ReadSnapshot applies: Known, LastRef and
// Export read writer-shared structures and must be serialized against
// Ingest.
func (g *Engine) Window() *stream.ActiveWindow { return g.front.Load().buf.win }

// Scorer exposes the published buffer's scorer for baselines that evaluate
// the same objective. The retention rule of Window applies.
func (g *Engine) Scorer() *score.Scorer { return g.front.Load().buf.scorer }

// NumActive returns n_t as of the last published bucket.
func (g *Engine) NumActive() int { return g.front.Load().numActive }

// Now returns the current stream time as of the last published bucket.
func (g *Engine) Now() stream.Time { return g.front.Load().now }

// Stats returns the maintenance counters as of the last published bucket.
func (g *Engine) Stats() Stats { return g.front.Load().stats }

// ShardStats returns one entry — the single pass — as of the last
// published bucket (see the type, and NumShards, for why it still exists).
func (g *Engine) ShardStats() []ShardStats {
	return []ShardStats{{Busy: g.front.Load().listBusy}}
}

// Ingest advances the window to now with one bucket of elements and
// maintains the ranked lists (Algorithm 1): new elements are inserted into
// the lists of every topic they have mass on; parents gaining references are
// rescored and repositioned; expired elements are deleted. The work is
// applied to the private back buffer and published atomically at the end,
// so concurrent queries keep reading the previous bucket's snapshot until
// this one is complete, then switch to it.
func (g *Engine) Ingest(now stream.Time, batch []*stream.Element) error {
	g.mu.Lock()
	defer g.mu.Unlock()

	if err := g.validate(now, batch); err != nil {
		return err
	}
	// Inside a deferred-publish batch the back buffer is already current
	// after the first bucket (nothing was published, so there is nothing
	// to catch up on); recycling again would double-apply the replay queue.
	if len(g.unpublished) == 0 {
		if err := g.recycle(); err != nil {
			return err
		}
	}

	// The timer starts here so UpdateTime measures one application of the
	// bucket — the paper's Figure-14 maintenance cost — and is not
	// inflated by the drain wait (reader latency, not maintenance) or the
	// catch-up above (counted in ReplayTime).
	start := time.Now()
	rec := g.newBucketDelta()
	if err := g.applyBucket(g.back, now, batch, rec); err != nil {
		return err
	}
	elapsed := time.Since(start)
	g.stats.ElementsIngested += int64(len(batch))
	g.stats.Buckets++
	g.stats.UpdateTime += elapsed
	obsElements.Add(uint64(len(batch)))
	obsBuckets.Inc()
	obsUpdateTime.AddDuration(elapsed)
	g.unpublished = append(g.unpublished, &pendingBucket{now: now, delta: rec})
	if g.batching {
		// Deferred publish: the bucket is applied to the back buffer but
		// readers keep the pre-batch snapshot until EndBatch publishes
		// once for the whole commit batch.
		return nil
	}
	g.publish()
	// A bucket boundary is the natural scheduling point of the whole
	// design: the new snapshot is out, so let queries that arrived during
	// the bucket observe it now instead of waiting out a saturating
	// writer's preemption slice (this matters most at GOMAXPROCS=1).
	runtime.Gosched()
	return nil
}

// BeginBatch opens a deferred-publish bracket: buckets ingested until
// EndBatch are applied to the writer's buffer without publishing a
// snapshot, so a commit batch that crosses several bucket boundaries costs
// one freeze/swap/drain cycle instead of one per bucket. Readers keep the
// pre-batch snapshot for the duration (legal under the snapshot-visibility
// contract — they observe a slightly older published bucket). Duplicate
// detection during the batch reads the archive the twin windows share.
// Writer-side only, like Ingest.
func (g *Engine) BeginBatch() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.batching = true
}

// EndBatch closes the deferred-publish bracket, publishing the buckets
// ingested since BeginBatch as one snapshot (a no-op when none were).
func (g *Engine) EndBatch() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.batching = false
	if len(g.unpublished) > 0 {
		g.publish()
		runtime.Gosched()
	}
}

// WriterResidentBytes approximates the heap bytes pinned by the engine's
// window state — archived element payloads plus flat per-element
// bookkeeping overhead (see stream.ActiveWindow.ApproxBytes). The twin
// windows share one archive and the shared copy is counted once. It feeds
// the hub's residency accounting from the commit path and is never part of
// exported state. Takes the writer lock: MaterializeBack may swap the back
// buffer pointer in from any goroutine after a lazy restore.
func (g *Engine) WriterResidentBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.back == nil {
		// Lazily restored and not yet written to: the front window owns
		// all window state (sharing only begins at materialization).
		return g.front.Load().buf.win.ApproxBytes()
	}
	return g.back.win.ApproxBytes()
}

// WriterNow returns the stream time as the writer sees it: the last
// applied bucket boundary, including buckets deferred inside an open
// BeginBatch bracket that readers cannot observe yet. Equal to Now outside
// a bracket. Writer-side only, like Ingest.
func (g *Engine) WriterNow() stream.Time {
	if n := len(g.unpublished); n > 0 {
		return g.unpublished[n-1].now
	}
	return g.front.Load().now
}

// recycle readies the back buffer for the next bucket: wait until the
// readers that pinned its retired snapshot have drained, thaw it, and
// catch it up on the buckets it missed while published by structural
// delta replay (no re-scoring). Outside a deferred-publish batch the queue
// holds exactly one bucket; after one it holds the whole batch, replayed
// in ingest order.
func (g *Engine) recycle() error {
	if g.back == nil {
		// Lazy restore: the back buffer was deferred off the activation
		// critical path and this is the first write since. No bucket has
		// been applied yet (any earlier Ingest would have materialized),
		// so the replay queue is empty and the front still equals the
		// restored state the buffer is rebuilt from.
		return g.materializeBack(true)
	}
	if g.backSnap != nil {
		g.backSnap.waitDrained()
		g.backSnap = nil
	}
	g.back.thaw()
	if len(g.replayQ) == 0 {
		return nil
	}
	q := g.replayQ
	g.replayQ = nil
	start := time.Now()
	for _, p := range q {
		g.back.replay(p.delta)
		// Recycle the ops slice into the next capture; drop the window
		// and cache parts so their element references can be collected.
		p.delta.win, p.delta.cache = nil, score.CacheDelta{}
		g.spentDeltas = append(g.spentDeltas, p.delta)
	}
	elapsed := time.Since(start)
	g.stats.ReplayTime += elapsed
	obsReplayTime.AddDuration(elapsed)
	return nil
}

// validate rejects a bad bucket before either buffer is touched, so the two
// copies can never diverge on an error path. Inside a deferred-publish
// batch the published front lags the writer, so ordering is checked
// against the last applied (possibly unpublished) bucket, and duplicate
// detection against the back window — whose archive, shared between the
// twins, covers every ingested element.
func (g *Engine) validate(now stream.Time, batch []*stream.Element) error {
	prevNow := g.front.Load().now
	win := g.front.Load().buf.win
	if n := len(g.unpublished); n > 0 {
		prevNow = g.unpublished[n-1].now
		win = g.back.win
	}
	if now < prevNow {
		return fmt.Errorf("core: time moved backwards %d → %d", prevNow, now)
	}
	ids := make(map[stream.ElemID]struct{}, len(batch))
	prevTS := prevNow
	for _, e := range batch {
		if e.TS <= prevNow || e.TS > now {
			return fmt.Errorf("core: element %d at %d outside bucket (%d, %d]", e.ID, e.TS, prevNow, now)
		}
		if e.TS < prevTS {
			return fmt.Errorf("core: element %d at %d arrives after later timestamp %d", e.ID, e.TS, prevTS)
		}
		prevTS = e.TS
		if _, dup := ids[e.ID]; dup || win.Known(e.ID) {
			return fmt.Errorf("core: duplicate element ID %d", e.ID)
		}
		ids[e.ID] = struct{}{}
	}
	return nil
}

// applyBucket advances one buffer's window by one bucket and maintains its
// ranked lists. The structural outcome — window delta, cache delta, net
// list ops — is recorded into rec for replay onto the other buffer.
func (g *Engine) applyBucket(b *buffer, now stream.Time, batch []*stream.Element, rec *bucketDelta) error {
	cs, win, err := b.win.AdvanceRecorded(now, batch)
	if err != nil {
		return err
	}
	rec.win = win
	// OnChange caches every inserted element's word weights and drops the
	// expired ones, so the list pass below scores from the cache alone.
	rec.cache = b.scorer.OnChangeRecorded(cs)
	g.maintainLists(b, cs, rec)
	return nil
}

// maintainLists is the ranked-list half of Algorithm 1 (lines 7–13), one
// sequential pass over the changeset: expired elements leave the lists of
// their topics first, then every inserted and every updated element has
// δ_i(e) recomputed and its tuple (re)positioned. Each structural outcome is
// appended to rec.ops carrying the computed score, so replay never rescores.
func (g *Engine) maintainLists(b *buffer, cs stream.ChangeSet, rec *bucketDelta) {
	start := time.Now()
	ops := rec.ops
	for _, e := range cs.Expired {
		for _, topic := range e.Topics.Topics {
			if op, ok := b.lists[topic].DeleteRecorded(e.ID); ok {
				ops = append(ops, topicOp{topic: topic, op: op})
				g.stats.ListDeletes++
			}
		}
	}
	for _, es := range [2][]*stream.Element{cs.Inserted, cs.Updated} {
		for _, e := range es {
			// An element that entered already out of window expired in
			// this same advance and must not linger in the lists.
			te, active := b.win.LastRef(e.ID)
			if !active {
				continue
			}
			for _, topic := range e.Topics.Topics {
				delta := b.scorer.TopicScore(e, topic)
				ops = append(ops, topicOp{topic: topic, op: b.lists[topic].UpsertRecorded(e.ID, delta, te)})
				g.stats.ListUpserts++
			}
		}
	}
	rec.ops = ops
	g.listBusy += time.Since(start)
}

// publish freezes the back buffer into an immutable snapshot, swaps it in as
// the read path, and retires the old snapshot; its buffer becomes the next
// back buffer once readers drain, with the unpublished buckets' recorded
// deltas queued for replay.
func (g *Engine) publish() {
	b := g.back
	b.freeze()
	snap := newSnapshot(b, g.stats, g.listBusy)
	old := g.front.Swap(snap)
	g.backSnap = old
	g.back = old.buf
	g.replayQ = g.unpublished
	g.unpublished = nil
}

// materializeBack builds the deferred back buffer from the retained
// restore state. Caller holds mu. Correctness rests on one invariant: no
// bucket has been applied since Restore (back is nil exactly until the
// first recycle or MaterializeBack, and both run before any post-restore
// applyBucket), so the published front is still byte-identical to the
// retained State — rebuilding from it, adopting the front scorer's
// immutable cache entries, and sharing the front window's writer state
// yields a buffer byte-identical to the front. With record set the timing
// is parked for TakeMaterialize (the ingest path); the explicit path
// reports its own timing and leaves the handoff alone.
func (g *Engine) materializeBack(record bool) error {
	start := time.Now()
	front := g.front.Load().buf
	back, err := restoreBuffer(g.cfg, *g.lazy, front.scorer)
	if err != nil {
		return fmt.Errorf("core: materializing back buffer: %w", err)
	}
	stream.ShareWriterState(front.win, back.win) // see NewEngine
	g.back = back
	g.lazy = nil // free the retained window/list state
	if record {
		g.matStart, g.matDur = start, time.Since(start)
	}
	return nil
}

// MaterializeBack builds a lazily deferred back buffer now, off the write
// path — the hub calls it at the end of a prefetch activation, so the
// write the prefetch anticipated finds the buffer already built. It
// reports whether it did the work (false when the buffer exists
// — a write or an earlier call already materialized it) and how long the
// build took. Safe to call concurrently with Ingest and queries; a
// write racing it simply loses the mu race and finds back non-nil.
func (g *Engine) MaterializeBack() (bool, time.Duration, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.back != nil {
		return false, 0, nil
	}
	start := time.Now()
	if err := g.materializeBack(false); err != nil {
		return false, 0, err
	}
	return true, time.Since(start), nil
}

// BackMaterialized reports whether the back buffer currently exists (it
// does not on a lazily restored engine until the first write or an
// explicit MaterializeBack). Diagnostic; races with a concurrent write's
// materialization benignly.
func (g *Engine) BackMaterialized() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.back != nil
}

// TakeMaterialize returns and clears the timing of an ingest-path back
// buffer materialization (zero when none happened since the last call).
// The hub's commit path polls it after each apply pass to attribute a
// backbuffer.materialize span to the op that paid the build.
func (g *Engine) TakeMaterialize() (time.Time, time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	start, dur := g.matStart, g.matDur
	g.matStart, g.matDur = time.Time{}, 0
	return start, dur
}

// ListLen returns the size of RL_i as of the last published bucket (for
// tests and diagnostics). Safe to call concurrently with Ingest: it pins
// the snapshot like a query does.
func (g *Engine) ListLen(topic int) int {
	snap := g.acquire()
	defer snap.release()
	return snap.buf.frozen[topic].Len()
}

// ListItems returns RL_i's tuples in ranked order as of the last published
// bucket (for tests/diagnostics). Safe to call concurrently with Ingest.
func (g *Engine) ListItems(topic int) []rankedlist.Item {
	snap := g.acquire()
	defer snap.release()
	return snap.buf.frozen[topic].Items()
}
