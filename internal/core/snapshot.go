package core

import (
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// snapshot is one published engine version: the bucket's sequence number,
// the slot tables' headers and the list lengths as the bucket left them,
// and the scalar facts queries report. It copies no element state: readers
// reach the window, the scorer cache and the lists only by slot and by
// list node, at the snapshot's version, while the writer writes the next
// one beside it. Readers pin it with acquire/release; the writer unlinks
// the list nodes and releases the slots only its version still sees only
// after a grace period confirms the last reader has drained (an RCU-style
// scheme built on a read-write lock).
//
// The lock never serializes queries against ingest: a query read-locks the
// snapshot current at its start, and the writer's drain barrier only ever
// write-locks a *retired* snapshot — one no new query can pin, because the
// published pointer has already moved on. The only queries a writer ever
// waits for are those started before the previous publish and still
// running.
type snapshot struct {
	// seq is the bucket sequence number (== stats.Buckets at publish) and
	// the version of lists it reads; lens[i] is RL_i's length there.
	seq       int64
	sc        score.View // the scorer cache and window tables at seq
	lists     []*rankedlist.List
	lens      []int
	now       stream.Time
	numActive int
	stats     Stats
	listBusy  time.Duration // Engine.listBusy at publish

	// pins is read-locked by every reader of the snapshot for the duration
	// of the read. waitDrained write-locks it once, after the snapshot is
	// retired, to establish that all those readers have finished.
	pins sync.RWMutex
}

// newSnapshot ends the version being written and returns it as the next
// snapshot to publish.
func (g *Engine) newSnapshot() *snapshot {
	lens := make([]int, len(g.lists))
	for i, l := range g.lists {
		lens[i] = l.Len()
	}
	return &snapshot{
		seq:       g.tab.Publish(),
		sc:        g.scorer.View(),
		lists:     g.lists,
		lens:      lens,
		now:       g.win.Now(),
		numActive: g.win.NumActive(),
		stats:     g.stats,
		listBusy:  g.listBusy,
	}
}

// acquire pins the current published snapshot. The lock-then-validate loop
// closes the race with a concurrent publish: if the pointer moved after we
// read-locked, we pinned a retired snapshot, whose version the writer may
// already be freeing — drop it (we read nothing of it) and take the new
// one.
func (g *Engine) acquire() *snapshot {
	for {
		s := g.front.Load()
		s.pins.RLock()
		if g.front.Load() == s {
			obsSnapshotPins.Inc()
			return s
		}
		s.pins.RUnlock()
	}
}

// release unpins the snapshot.
func (s *snapshot) release() {
	obsSnapshotPins.Dec()
	s.pins.RUnlock()
}

// waitDrained blocks until every reader that pinned the snapshot has
// released it. Only the writer calls it, after the snapshot has been
// retired, before freeing what only its version sees; the write-lock/unlock
// pair is a pure barrier establishing the RCU grace period.
func (s *snapshot) waitDrained() {
	s.pins.Lock()
	//lint:ignore SA2001 empty critical section is the point: a barrier.
	s.pins.Unlock()
}

// ReadSnapshot calls fn with the last published bucket's sequence
// (Result.BucketSeq of a query against it), and the engine's window and
// scorer as that bucket left them. It holds the writer lock while fn runs,
// so fn may use the ID-keyed reads — Get, Children, LastRef, Known,
// Export, Score, Explain — that queries may not; Ingest waits for it. It
// is the way for read-only consumers — explanations, metrics, baselines —
// to inspect window state concurrently with ingest. fn must not mutate its
// arguments and must not retain them after it returns.
func (g *Engine) ReadSnapshot(fn func(bucket int64, win *stream.ActiveWindow, scorer *score.Scorer)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fn(g.front.Load().seq, g.win, g.scorer)
}

// view is the read-only engine state a single query runs against: the
// pinned snapshot's scorer view (with its window version) and version of
// the ranked lists. The query algorithms (Algorithms 2 and 3) are methods
// on view, which makes "queries only see published buckets" a type-level
// property — they reach per-element state only by slot, at the version.
type view struct {
	sc        score.View
	lists     []*rankedlist.List // read at version seq only
	numActive int
	seq       int64
}

func (s *snapshot) view() *view {
	return &view{
		sc:        s.sc,
		lists:     s.lists,
		numActive: s.numActive,
		seq:       s.seq,
	}
}
