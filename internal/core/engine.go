// Package core implements the paper's primary contribution: the k-SIR query
// engine of §4 — per-topic ranked-list maintenance over the sliding window
// (Algorithm 1) and the two real-time approximation algorithms MTTS
// (Algorithm 2, (1/2 − ε)-approximate) and MTTD (Algorithm 3,
// (1 − 1/e − ε)-approximate).
//
// The engine separates an ingest path from a read path (DESIGN.md §6): the
// writer maintains a private back buffer — window and scorer — and the Z
// versioned ranked lists, updated in one sequential pass in the committing
// caller, and at the end of every bucket publishes an immutable snapshot
// through an atomic pointer. The lists exist once: a snapshot names the
// list version it reads, and the writer's next version links new nodes
// beside the ones readers walk. Queries pin the published snapshot and
// traverse it with zero locking, so they never block behind ingest and
// always observe exactly one bucket boundary.
//
// The retired buffer catches up on the bucket it missed by structural
// delta replay (DESIGN.md §9): the primary application records the net
// window and scorer-cache operations it performed (bucketDelta), and
// recycling replays them verbatim — no re-scoring, no second pass through
// score.Scorer — leaving the recycled buffer byte-identical to the
// published front.
package core

import (
	"fmt"
	"runtime"
	"slices"
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
	// UpdateTime is the wall time spent applying buckets: window advance,
	// rescoring, and ranked-list maintenance, counted once per bucket.
	// This is the paper's Figure-14 cost; the catch-up on the recycled
	// buffer is counted separately in ReplayTime, and the wait for readers
	// to drain (reader latency, not maintenance) is counted nowhere.
	UpdateTime time.Duration
	// ReplayTime is the wall time spent bringing recycled buffers up to
	// the published front by delta replay, and unlinking the list nodes
	// the published bucket removed. It lags UpdateTime by one bucket (a
	// bucket's catch-up runs at the start of the next Ingest).
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

// buffer is one copy of the window and the scorer. The engine keeps two:
// the published one backs the read path, the other is the writer's working
// copy (DESIGN.md §6). The ranked lists are not in it: they are versioned,
// and one set serves both.
type buffer struct {
	win    *stream.ActiveWindow
	scorer *score.Scorer
}

// Engine is the k-SIR query processor (Figure 4). Ingest is serialized (one
// writer); queries may run concurrently with each other and with Ingest —
// each query pins the engine snapshot published at the last bucket boundary
// and never blocks behind the writer. Every Ingest publishes, so the back
// buffer is behind the front by at most one bucket, replayed at the start
// of the next Ingest.
type Engine struct {
	cfg Config

	mu    sync.Mutex // serializes Ingest (the writer side)
	front atomic.Pointer[snapshot]
	// lists are RL_1..RL_Z on tab, indexed by the windows' slots: the
	// writer writes the version after the published one, readers read the
	// version their snapshot names.
	lists []*rankedlist.List

	// Writer-owned state (guarded by mu):
	tab      *rankedlist.Table
	back     *buffer   // working copy; never nil
	backSnap *snapshot // retired snapshot whose buffer is back; drained before reuse
	// pending is the bucket applied to the published buffer but not yet
	// replayed onto back (nil before the first bucket and after recycle).
	pending *bucketDelta
	// idScratch sorts a batch's IDs when validate looks for duplicates.
	idScratch []stream.ElemID
	stats     Stats
	listBusy  time.Duration // wall time spent in maintainLists
}

// NewEngine validates the configuration and returns an empty engine: the
// Restore of an empty state.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: config needs a topic model")
	}
	return Restore(cfg, State{Lists: make([][]rankedlist.Item, cfg.Model.Z)})
}

// NumShards is always 1: the ranked lists are maintained in one pass by the
// ingesting caller. Kept, with ShardStats, only because the frozen
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
	g.recycle()

	// The timer starts here so UpdateTime measures one application of the
	// bucket — the paper's Figure-14 maintenance cost — and is not
	// inflated by the drain wait (reader latency, not maintenance) or the
	// catch-up above (counted in ReplayTime).
	start := time.Now()
	rec := new(bucketDelta)
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
	g.publish(rec)
	// A bucket boundary is the natural scheduling point of the whole
	// design: the new snapshot is out, so let queries that arrived during
	// the bucket observe it now instead of waiting out a saturating
	// writer's preemption slice (this matters most at GOMAXPROCS=1).
	runtime.Gosched()
	return nil
}

// WriterResidentBytes approximates the heap bytes pinned by the engine's
// elements: the archive's frame ends and in-memory records, the ID index,
// and the active elements with their bookkeeping in both buffers (see
// stream.ActiveWindow.ApproxBytes). The twin windows share one archive,
// counted once. It feeds the hub's residency accounting from the commit
// path and is never part of exported state. Takes the writer lock:
// publish swaps the back buffer pointer.
func (g *Engine) WriterResidentBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.back.win.ApproxBytes()
}

// AdoptLog hands the engine the frames a checkpoint just wrote to the
// stream's element log — arrivals first, first+1, …, ending at ends — and
// the log to read them back through (stream.ActiveWindow.AdoptLog): the
// archive drops its in-memory records of those elements and keeps where
// their frames end. The twin windows share one archive, so adopting once
// covers both. Takes the writer lock.
func (g *Engine) AdoptLog(log stream.ElementLog, first int, ends []int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.back.win.AdoptLog(log, first, ends)
}

// recycle readies the back buffer for the next bucket: wait until the
// readers that pinned its retired snapshot have drained, unlink the list
// nodes the published bucket removed (only those readers could see them),
// and catch the buffer up on the one bucket it missed while published by
// structural delta replay (no re-scoring). The sweep comes before the
// advance that may hand out the slots of the removed nodes again.
func (g *Engine) recycle() {
	if g.backSnap != nil {
		g.backSnap.waitDrained()
		g.backSnap = nil
	}
	if g.pending == nil {
		return
	}
	start := time.Now()
	g.tab.Sweep()
	g.back.replay(g.pending)
	g.pending = nil
	elapsed := time.Since(start)
	g.stats.ReplayTime += elapsed
	obsReplayTime.AddDuration(elapsed)
}

// validate rejects a bad bucket before either buffer is touched, so the two
// copies can never diverge on an error path. Duplicate detection reads the
// published window's ID index, which the twin buffers share, so it covers
// every ingested element.
func (g *Engine) validate(now stream.Time, batch []*stream.Element) error {
	front := g.front.Load()
	prevNow, win := front.now, front.buf.win
	if now < prevNow {
		return fmt.Errorf("core: time moved backwards %d → %d", prevNow, now)
	}
	prevTS := prevNow
	for _, e := range batch {
		if e.TS <= prevNow || e.TS > now {
			return fmt.Errorf("core: element %d at %d outside bucket (%d, %d]", e.ID, e.TS, prevNow, now)
		}
		if e.TS < prevTS {
			return fmt.Errorf("core: element %d at %d arrives after later timestamp %d", e.ID, e.TS, prevTS)
		}
		prevTS = e.TS
		if err := fits(g.cfg.Model, e); err != nil {
			return err
		}
		if win.Known(e.ID) {
			return fmt.Errorf("core: duplicate element ID %d", e.ID)
		}
	}
	// A duplicate within the batch: producers mostly number posts in
	// arrival order, so a strictly increasing batch needs no more; any
	// other is sorted in the writer's scratch.
	for i := 1; i < len(batch); i++ {
		if batch[i].ID > batch[i-1].ID {
			continue
		}
		ids := g.idScratch[:0]
		for _, e := range batch {
			ids = append(ids, e.ID)
		}
		slices.Sort(ids)
		g.idScratch = ids
		for k := 1; k < len(ids); k++ {
			if ids[k] == ids[k-1] {
				return fmt.Errorf("core: duplicate element ID %d", ids[k])
			}
		}
		break
	}
	return nil
}

// applyBucket advances one buffer's window by one bucket and maintains the
// ranked lists. The buffer's structural outcome — window delta, cache
// delta — is recorded into rec for replay onto the other buffer.
func (g *Engine) applyBucket(b *buffer, now stream.Time, batch []*stream.Element, rec *bucketDelta) error {
	cs, win, err := b.win.AdvanceRecorded(now, batch)
	if err != nil {
		return err
	}
	rec.win = win
	// OnChange caches every inserted element's word weights and drops the
	// expired ones, so the list pass below scores from the cache alone.
	rec.cache = b.scorer.OnChangeRecorded(cs)
	g.maintainLists(b, cs)
	return nil
}

// maintainLists is the ranked-list half of Algorithm 1 (lines 7–13), one
// sequential pass over the changeset, writing the lists' next version:
// expired elements leave the lists of their topics first, then every
// inserted and every updated element has δ_i(e) recomputed and its tuple
// (re)positioned.
func (g *Engine) maintainLists(b *buffer, cs stream.ChangeSet) {
	start := time.Now()
	for i, e := range cs.Expired {
		s := cs.ExpiredSlots[i]
		for j, topic := range e.Topics.Topics {
			if g.lists[topic].DeleteAt(s, j) {
				g.stats.ListDeletes++
			}
		}
	}
	for _, es := range [2]struct {
		elems []*stream.Element
		slots []stream.Slot
	}{{cs.Inserted, cs.InsertedSlots}, {cs.Updated, cs.UpdatedSlots}} {
		for i, e := range es.elems {
			// An element that entered already out of window expired in
			// this same advance and must not linger in the lists; its
			// slot is empty until the next advance.
			s := es.slots[i]
			if b.win.At(s) != e {
				continue
			}
			te := b.win.LastRefAt(s)
			for j, topic := range e.Topics.Topics {
				g.lists[topic].UpsertAt(s, j, e.ID, b.scorer.TopicScoreAt(e, s, j), te)
				g.stats.ListUpserts++
			}
		}
	}
	g.listBusy += time.Since(start)
}

// publish ends the lists' version, publishes it with the back buffer as an
// immutable snapshot, and retires the old snapshot; its buffer becomes the
// next back buffer once readers drain, with rec — the bucket just applied —
// pending replay onto it.
func (g *Engine) publish(rec *bucketDelta) {
	snap := g.newSnapshot(g.back)
	old := g.front.Swap(snap)
	g.backSnap = old
	g.back = old.buf
	g.pending = rec
}

// ListLen returns the size of RL_i as of the last published bucket (for
// tests and diagnostics). Safe to call concurrently with Ingest: it pins
// the snapshot like a query does.
func (g *Engine) ListLen(topic int) int {
	snap := g.acquire()
	defer snap.release()
	return snap.lens[topic]
}

// ListItems returns RL_i's tuples in ranked order as of the last published
// bucket (for tests/diagnostics). Safe to call concurrently with Ingest.
func (g *Engine) ListItems(topic int) []rankedlist.Item {
	snap := g.acquire()
	defer snap.release()
	return g.lists[topic].ItemsAt(snap.seq, snap.lens[topic])
}
