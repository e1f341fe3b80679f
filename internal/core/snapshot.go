package core

import (
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// snapshot is one published, immutable engine state: the buffer as of a
// bucket boundary plus the scalar facts queries report. Readers pin it with
// acquire/release; the writer recycles its buffer only after a grace period
// confirms the last reader has drained (an RCU-style scheme built on a
// read-write lock).
//
// The lock never serializes queries against ingest: a query read-locks the
// snapshot current at its start, and the writer's drain barrier only ever
// write-locks a *retired* snapshot — one no new query can pin, because the
// published pointer has already moved on. The only queries a writer ever
// waits for are those started before the previous publish and still
// running.
type snapshot struct {
	buf       *buffer
	seq       int64 // bucket sequence number (== stats.Buckets at publish)
	now       stream.Time
	numActive int
	stats     Stats
	listBusy  time.Duration // Engine.listBusy at publish

	// pins is read-locked by every reader of buf for the duration of the
	// read. waitDrained write-locks it once, after the snapshot is
	// retired, to establish that all those readers have finished.
	pins sync.RWMutex
}

func newSnapshot(b *buffer, stats Stats, listBusy time.Duration) *snapshot {
	return &snapshot{
		buf:       b,
		seq:       stats.Buckets,
		now:       b.win.Now(),
		numActive: b.win.NumActive(),
		stats:     stats,
		listBusy:  listBusy,
	}
}

// acquire pins the current published snapshot. The lock-then-validate loop
// closes the race with a concurrent publish: if the pointer moved after we
// read-locked, we pinned a retiring snapshot — drop it (we never
// dereferenced its buffer) and take the new one.
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
// retired, before mutating its buffer; the write-lock/unlock pair is a
// pure barrier establishing the RCU grace period.
func (s *snapshot) waitDrained() {
	s.pins.Lock()
	//lint:ignore SA2001 empty critical section is the point: a barrier.
	s.pins.Unlock()
}

// ReadSnapshot pins the last published snapshot and calls fn with its
// bucket sequence (Result.BucketSeq of a query against it), window and
// scorer; the buffer cannot be recycled (and therefore cannot
// be mutated) while fn runs. It is the safe way for read-only consumers —
// explanations, metrics, baselines — to inspect window state concurrently
// with Ingest. fn must not mutate its arguments and must not retain them
// after it returns.
//
// Snapshot stability covers the per-buffer state queries read: the active
// set (Get/NumActive/ForEachActive/ActiveIDs), the reference index
// (Children/ForEachChild) and the scorer. It does NOT cover the window's
// writer-shared structures — Known, LastRef and Export read the archive,
// its index and the last-ref map, which the twin buffers share
// (stream.ActiveWindow.Replica) and a concurrent Ingest mutates.
// Callers needing those must serialize against Ingest, as ExportState's
// callers already do.
func (g *Engine) ReadSnapshot(fn func(bucket int64, win *stream.ActiveWindow, scorer *score.Scorer)) {
	snap := g.acquire()
	defer snap.release()
	fn(snap.seq, snap.buf.win, snap.buf.scorer)
}

// view is the read-only engine state a single query runs against: the
// pinned snapshot's window, scorer and frozen ranked lists. The query
// algorithms (Algorithms 2 and 3) are methods on view, which makes "queries
// only see published buckets" a type-level property — they cannot reach the
// writer's buffer.
type view struct {
	win       *stream.ActiveWindow
	scorer    *score.Scorer
	lists     []*rankedlist.Snapshot
	numActive int
	seq       int64
}

func (s *snapshot) view() *view {
	return &view{
		win:       s.buf.win,
		scorer:    s.buf.scorer,
		lists:     s.buf.frozen,
		numActive: s.numActive,
		seq:       s.seq,
	}
}
