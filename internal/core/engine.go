// Package core implements the paper's primary contribution: the k-SIR query
// engine of §4 — per-topic ranked-list maintenance over the sliding window
// (Algorithm 1) and the two real-time approximation algorithms MTTS
// (Algorithm 2, (1/2 − ε)-approximate) and MTTD (Algorithm 3,
// (1 − 1/e − ε)-approximate).
//
// The engine separates an ingest path from a read path (DESIGN.md §6). It
// holds one window, one scorer and one set of Z versioned ranked lists;
// the writer updates them in one sequential pass in the committing caller
// and at the end of every bucket publishes a snapshot through an atomic
// pointer. A snapshot is a version — the bucket's sequence number plus the
// slot tables' headers and the list lengths as the bucket left them — not
// a copy: a query pins it and reads per-element state only by slot, as the
// list nodes it walks give it, with zero locking, so it never blocks
// behind ingest and always observes exactly one bucket boundary. The
// writer writes the next version beside the one readers walk, and frees
// what only the retired version still sees once that version's readers
// have drained.
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
	// UpdateTime is the wall time spent applying buckets: unlinking the
	// list nodes and releasing the slots the retired version alone still
	// saw, window advance, rescoring and ranked-list maintenance, counted
	// once per bucket. This is the paper's Figure-14 cost; the wait for
	// readers to drain (reader latency, not maintenance) is not in it.
	UpdateTime  time.Duration
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

// Engine is the k-SIR query processor (Figure 4). Ingest is serialized (one
// writer); queries may run concurrently with each other and with Ingest —
// each query pins the engine snapshot published at the last bucket boundary
// and never blocks behind the writer. Every Ingest publishes, so a reader
// is at most one version behind the writer's.
type Engine struct {
	cfg Config

	mu    sync.Mutex // serializes Ingest and the ID-keyed reads (the writer side)
	front atomic.Pointer[snapshot]
	// lists are RL_1..RL_Z on tab, indexed by the window's slots: the
	// writer writes the version after the published one, readers read the
	// version their snapshot names.
	lists []*rankedlist.List

	// Writer-owned state (guarded by mu):
	tab    *rankedlist.Table
	win    *stream.ActiveWindow
	scorer *score.Scorer
	// retired is the snapshot the last publish replaced: its readers
	// drain before the next bucket frees what only its version sees.
	retired *snapshot
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
	return Restore(cfg, State{Lists: make([][]Tuple, cfg.Model.Z)})
}

// NumShards is always 1: the ranked lists are maintained in one pass by the
// ingesting caller. Kept, with ShardStats, only because the frozen
// benchmark/ module divides by it; both go when a benchmark PR drops them.
func (g *Engine) NumShards() int { return 1 }

// Window exposes the engine's window for read-only use by baselines and
// metrics. It is the writer's: callers must serialize every use of it with
// Ingest (an idle engine, ReadSnapshot, or the stream's commit lock).
func (g *Engine) Window() *stream.ActiveWindow { return g.win }

// Scorer exposes the engine's scorer for baselines that evaluate the same
// objective. The serialization rule of Window applies.
func (g *Engine) Scorer() *score.Scorer { return g.scorer }

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
// rescored and repositioned; expired elements are deleted. The work writes
// the engine's next version and publishes it atomically at the end, so
// concurrent queries keep reading the previous bucket's snapshot until
// this one is complete, then switch to it.
func (g *Engine) Ingest(now stream.Time, batch []*stream.Element) error {
	g.mu.Lock()
	defer g.mu.Unlock()

	if err := g.validate(now, batch); err != nil {
		return err
	}
	// The readers of the snapshot the last publish retired may still read
	// the list nodes and slots the last bucket removed; once they drain,
	// the sweep unlinks those nodes and the advance releases those slots,
	// before it hands any out. UpdateTime starts after the wait: it is
	// reader latency, not maintenance.
	start := time.Now()
	if g.retired != nil {
		g.retired.waitDrained()
		g.retired = nil
	}
	drained := time.Now()
	g.tab.Sweep()
	cs, err := g.win.Advance(now, batch)
	if err != nil {
		return err
	}
	// OnChange clears the released slots' entries and caches every
	// inserted element's word weights, so the list pass below scores from
	// the cache alone.
	g.scorer.OnChange(cs)
	g.maintainLists(cs)
	elapsed := time.Since(drained)
	g.stats.ElementsIngested += int64(len(batch))
	g.stats.Buckets++
	g.stats.UpdateTime += elapsed
	obsElements.Add(uint64(len(batch)))
	obsBuckets.Inc()
	obsUpdateTime.AddDuration(elapsed)
	obsDrainWait.AddDuration(drained.Sub(start))
	g.retired = g.front.Swap(g.newSnapshot())
	// A bucket boundary is the natural scheduling point of the whole
	// design: the new snapshot is out, so let queries that arrived during
	// the bucket observe it now instead of waiting out a saturating
	// writer's preemption slice (this matters most at GOMAXPROCS=1).
	runtime.Gosched()
	return nil
}

// WriterResidentBytes approximates the heap bytes pinned by the engine's
// elements: the archive's frame ends and in-memory records, the ID index,
// the active elements with their bookkeeping (see
// stream.ActiveWindow.ApproxBytes) and their σ caches (score.Scorer.Bytes).
// It feeds the hub's residency accounting from the commit path and is never
// part of exported state. Takes the writer lock.
func (g *Engine) WriterResidentBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.win.ApproxBytes() + g.scorer.Bytes()
}

// AdoptLog hands the engine the frames a checkpoint just wrote to the
// stream's element log — arrivals first, first+1, …, ending at ends — and
// the log to read them back through (stream.ActiveWindow.AdoptLog): the
// archive drops its in-memory records of those elements and keeps where
// their frames end. Takes the writer lock.
func (g *Engine) AdoptLog(log stream.ElementLog, first int, ends []int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.win.AdoptLog(log, first, ends)
}

// validate rejects a bad bucket before the window is touched, so an error
// leaves the engine as it was. Duplicate detection reads the window's ID
// index, which covers every ingested element.
func (g *Engine) validate(now stream.Time, batch []*stream.Element) error {
	prevNow, win := g.win.Now(), g.win
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

// maintainLists is the ranked-list half of Algorithm 1 (lines 7–13), one
// sequential pass over the changeset, writing the lists' next version:
// expired elements leave the lists of their topics first, then every
// inserted and every updated element has δ_i(e) recomputed and its tuple
// (re)positioned. t_e is the window's alone (the advance moved it), so an
// updated parent keeps its node on every topic whose score did not move.
func (g *Engine) maintainLists(cs stream.ChangeSet) {
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
			// slot is retired until the next advance.
			s := es.slots[i]
			if g.win.At(s) != e {
				continue
			}
			for j, topic := range e.Topics.Topics {
				g.lists[topic].UpsertAt(s, j, e.ID, g.scorer.TopicScoreAt(e, s, j))
				g.stats.ListUpserts++
			}
		}
	}
	g.listBusy += time.Since(start)
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
