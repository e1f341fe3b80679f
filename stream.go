package ksir

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/trace"
)

// Stream is a live k-SIR query processor over one social stream: New
// makes a memory-only one, a Hub registers named ones, durable on a hub
// opened with OpenHub. Add posts in timestamp order; query at any time.
//
// Every method is safe for concurrent use. The write operations (Add,
// AddBatch, Flush, Checkpoint, Hibernate) go through a bounded queue to
// the stream's one writer goroutine, which runs them in queue order and
// coalesces adjacent ingest operations into commit batches: one engine
// pass and, on a durable hub, one WAL append with one shared fsync.
// Coalescing is invisible in the results — acceptance is decided per
// operation, in queue order — and a full queue blocks producers
// (backpressure). Checkpoint and Hibernate are commit barriers: each runs
// alone, after everything enqueued before it has committed. Queries,
// explanations and stats never enter the queue: they read the snapshot
// the engine publishes at every bucket boundary. Subscribe and
// Unsubscribe register under a small lock of their own, so subscription
// handlers may call them too.
//
// The writer goroutine runs until Close (or the hub's Close or CloseAll);
// after that every operation fails with ErrStreamClosed.
type Stream struct {
	name string
	// hub is the registry the stream is registered in (nil for New); Close
	// takes the stream out of it.
	hub *Hub
	// stp is the resident state, nil while hibernated. Only the commit
	// path stores it (residency transitions are commit barriers); queries
	// Load it and pin whatever snapshot they find — a stream hibernated
	// out from under an in-flight query stays reachable (and thus alive)
	// through the query's own pointer until it finishes.
	stp atomic.Pointer[engineStream]
	// model and opts are everything needed to rebuild the stream from its
	// durable state; both are fixed at construction.
	model *Model
	opts  Options

	// subs are the standing queries. Hibernation holds subs.mu from its
	// busy check until the resident state is gone, so a registration and
	// a hibernation exclude each other.
	subs subscriptions

	// qmu serializes enqueues with shutdown: the closed flag and the
	// channel send are checked-and-done under it, so no operation can
	// slip into the queue after the close op that ends the writer loop.
	qmu    sync.Mutex
	ops    chan *writeOp
	closed atomic.Bool   // fail-fast flag; reads must never contend with writers
	done   chan struct{} // closed by shutdown; see Done

	// Residency accounting. lastTouch orders eviction (stored by every
	// operation except Hibernate itself — an eviction must not refresh its
	// victim's warmth); lastStats preserves the final counters of a
	// hibernated stream so Stats never has to reload one.
	lastTouch        atomic.Int64
	hibernations     atomic.Int64
	activations      atomic.Int64
	lastActivationNs atomic.Int64
	residentBytes    atomic.Int64
	lastStats        atomic.Pointer[StreamStats]

	// pers is the stream's durability state (nil unless the hub was opened
	// with OpenHub), mutated only by the writer goroutine. The commit path
	// is the WAL append point: every accepted write is logged before its
	// operation completes.
	pers *streamPersist

	// recs is the writer-owned scratch buffer of WAL records for the
	// current commit batch.
	recs []persist.Record

	// inflight counts producers currently inside do() — enqueued or about
	// to be. The writer reads it as herd evidence when deciding whether to
	// wait a scheduling pass for a fuller commit batch.
	inflight atomic.Int64

	statOps     atomic.Int64
	statBatches atomic.Int64
}

// StreamHandle is an alias of Stream, kept only because the frozen
// benchmark module names it; new code says Stream.
type StreamHandle = Stream

// New creates a memory-only stream over a trained model, registered in no
// Hub. Close it when done: its writer goroutine runs until then.
func New(m *Model, opts Options) (*Stream, error) {
	es, opts, err := emptyStream(m, opts)
	if err != nil {
		return nil, err
	}
	return newStream("", nil, m, opts, es, nil), nil
}

// emptyStream resolves opts and builds an empty resident state over m.
func emptyStream(m *Model, opts Options) (*engineStream, Options, error) {
	if m == nil {
		return nil, opts, fmt.Errorf("%w: nil model", ErrBadOptions)
	}
	if err := opts.fill(); err != nil {
		return nil, opts, err
	}
	es, err := buildStream(m, opts, nil)
	return es, opts, err
}

// newStream builds a stream and starts its writer goroutine. A nil es
// (cold recovery under a residency budget) starts it hibernated.
func newStream(name string, h *Hub, m *Model, opts Options, es *engineStream, pers *streamPersist) *Stream {
	s := &Stream{
		name:  name,
		hub:   h,
		model: m,
		opts:  opts,
		pers:  pers,
		done:  make(chan struct{}),
		ops:   make(chan *writeOp, writeQueueCap),
	}
	if es != nil {
		s.setResident(es)
	}
	s.touch()
	go s.writerLoop()
	return s
}

// Name returns the name the stream is registered under ("" for New).
func (s *Stream) Name() string { return s.name }

// Stream returns its receiver. It is kept only because the frozen
// benchmark module calls it.
func (s *Stream) Stream() *Stream { return s }

// Options returns the stream's resolved options, every defaulted field
// filled in, without touching its residency. Lambda is never nil, and
// points at a copy of the stream's λ.
func (s *Stream) Options() Options { return s.opts.clone() }

// Model returns the model posts and queries are inferred against, without
// touching the stream's residency.
func (s *Stream) Model() *Model { return s.model }

// Resident reports whether the stream is currently loaded in memory.
// Operations work either way — the first touching one reactivates a
// hibernated stream.
func (s *Stream) Resident() bool { return s.stp.Load() != nil }

// Done returns a channel closed when the stream is closed — the signal
// long-lived consumers (e.g. SSE connections) select on to shut down
// instead of waiting on a stream that will never ingest again.
func (s *Stream) Done() <-chan struct{} { return s.done }

// touch refreshes the stream's eviction clock.
func (s *Stream) touch() { s.lastTouch.Store(time.Now().UnixNano()) }

// resident returns the resident state for a read, reactivating a
// hibernated stream first through an activate op: a commit barrier, so one
// activation serves every reader that races it. The state stays valid for
// this caller even if the stream hibernates again (see stp).
func (s *Stream) resident(ctx context.Context) (*engineStream, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("%w: %q", ErrStreamClosed, s.name)
	}
	if es := s.stp.Load(); es != nil {
		s.touch()
		return es, nil
	}
	op := s.do(&writeOp{kind: opActivate, tr: trace.FromContext(ctx)})
	return op.es, op.err
}

// Add appends one post. Posts must arrive in non-decreasing time order.
// The post is buffered and ingested when its bucket completes (or on
// Flush); queries observe it after that point, matching the paper's
// batch-update architecture (Figure 4). On a durable hub the accepted post
// is WAL-logged (sharing its commit batch's fsync) before Add returns; a
// logging failure is reported (wrapping ErrPersist) with the post already
// applied in memory.
func (s *Stream) Add(p Post) error {
	return s.AddContext(context.Background(), p)
}

// AddContext is Add with trace propagation: when ctx carries a trace op
// (internal/trace, attached by the HTTP middleware or an embedding
// caller), the operation's pipeline breakdown — queue wait, commit batch,
// engine apply, WAL append, fsync, future completion — is recorded as
// child spans on it. The context does not cancel the write: once
// enqueued, an operation always commits.
func (s *Stream) AddContext(ctx context.Context, p Post) error {
	return s.do(&writeOp{kind: opAdd, post: p, tr: trace.FromContext(ctx)}).err
}

// AddBatch appends posts in order, stopping at the first rejected post and
// reporting how many were accepted; when err is non-nil the posts after
// the rejected one were not examined. On a durable hub the accepted prefix
// is WAL-logged even when a later post is rejected; if both an ingest
// rejection and a logging failure occur, the returned error joins them
// (errors.Is matches each), and on a logging failure the accepted prefix
// is in memory but not durable.
func (s *Stream) AddBatch(posts []Post) (accepted int, err error) {
	return s.AddBatchContext(context.Background(), posts)
}

// AddBatchContext is AddBatch with trace propagation (see AddContext).
func (s *Stream) AddBatchContext(ctx context.Context, posts []Post) (accepted int, err error) {
	op := s.do(&writeOp{kind: opAddBatch, posts: posts, tr: trace.FromContext(ctx)})
	return op.accepted, op.err
}

// Flush ingests everything buffered up to and including stream time now,
// making it visible to queries (WAL-logged as an explicit boundary on a
// durable hub). Use it at end of input or before an immediate query.
func (s *Stream) Flush(now int64) error {
	return s.FlushContext(context.Background(), now)
}

// FlushContext is Flush with trace propagation (see AddContext).
func (s *Stream) FlushContext(ctx context.Context, now int64) error {
	return s.do(&writeOp{kind: opFlush, now: now, tr: trace.FromContext(ctx)}).err
}

// Checkpoint forces an immediate checkpoint: the stream's full state is
// serialized, the snapshot atomically replaces the previous one, and the
// WAL is truncated. It is a commit barrier — every operation enqueued
// before it is applied and WAL-logged first, so the checkpoint covers a
// fully drained prefix. It fails with ErrPersistDisabled unless the hub
// was opened with OpenHub. The returned stats reflect the stream just
// after the checkpoint.
func (s *Stream) Checkpoint() (PersistStats, error) {
	return s.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint with trace propagation (see AddContext).
func (s *Stream) CheckpointContext(ctx context.Context) (PersistStats, error) {
	op := s.do(&writeOp{kind: opCheckpoint, tr: trace.FromContext(ctx)})
	return op.ps, op.err
}

// Hibernate checkpoints the stream and releases its in-memory state —
// window, archive, scorer caches, both ranked-list buffers — while the
// stream stays registered: the next Add, Query or Subscribe transparently
// reactivates it from the checkpoint (see DESIGN.md §11). Idempotent on
// an already-hibernated stream. It fails with ErrPersistDisabled unless
// the hub was opened with OpenHub, and with ErrStreamBusy while standing
// queries are registered (unsubscribe them first). In-flight queries that
// pinned the stream's snapshot complete unaffected. Hubs with a residency
// budget call this automatically on the coldest streams; it is also useful
// directly when the caller knows a stream is going idle.
func (s *Stream) Hibernate() error {
	_, err := s.HibernateContext(context.Background())
	return err
}

// HibernateContext is Hibernate with trace propagation (see AddContext).
// The returned stats are those of the stream as the hibernation itself
// left it — not resident — even when a concurrent operation reactivates
// the stream before the call returns; a later Stats call may already see
// it resident again.
func (s *Stream) HibernateContext(ctx context.Context) (StreamStats, error) {
	op := s.do(&writeOp{kind: opHibernate, tr: trace.FromContext(ctx)})
	return op.stats, op.err
}

// Query answers a k-SIR query against the currently ingested window.
//
// Snapshot visibility: a query observes exactly the state at the end of the
// last ingested bucket — the paper's batch-update contract (Figure 4) made
// concurrency-safe. The query pins that snapshot for its whole run and
// never enters the writer pipeline, so queries run in parallel with each
// other and with ingestion; a query that races an in-flight bucket sees
// either the bucket before it or (once ingest completes and publishes) the
// bucket itself, never a partial state. Result.Bucket reports which bucket
// was observed. Posts buffered in the current, incomplete bucket are not
// yet visible — call Flush to force them in. Against a hibernated stream
// the query first reactivates it through the pipeline (one activation,
// however many queries race it).
//
// Cancellation: ctx is polled between ranked-list descents; a cancelled or
// expired context aborts the query with ctx.Err() (unwrapped) and releases
// the snapshot promptly. A nil ctx is treated as context.Background().
func (s *Stream) Query(ctx context.Context, q Query) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	es, err := s.resident(ctx)
	if err != nil {
		return Result{}, err
	}
	return es.query(ctx, q)
}

// Stats reports the stream's counters as of the last published bucket,
// including the durability, writer-pipeline and residency counters.
// Lock-free like Query — and it NEVER reactivates a hibernated stream
// (monitoring sweeps across thousands of tenants must not churn the hot
// tier): a hibernated stream reports the engine counters captured at
// hibernation, and a cold-recovered stream that has never been touched
// reports them as zero until its first activation.
func (s *Stream) Stats() StreamStats {
	var st StreamStats
	es := s.stp.Load()
	if es != nil {
		st = es.stats()
	} else if last := s.lastStats.Load(); last != nil {
		st = *last
	}
	st.Subscriptions = int(s.subs.n.Load())
	st.Pipeline = PipelineStats{
		QueueDepth: len(s.ops),
		Ops:        s.statOps.Load(),
		Batches:    s.statBatches.Load(),
	}
	if s.pers != nil {
		st.Persist = s.pers.stats()
		st.Pipeline.Fsyncs = s.pers.fsyncs()
	}
	st.Residency = ResidencyStats{
		Resident:       es != nil,
		Hibernations:   s.hibernations.Load(),
		Activations:    s.activations.Load(),
		LastActivation: time.Duration(s.lastActivationNs.Load()),
		ResidentBytes:  s.residentBytes.Load(),
	}
	return st
}

// Close releases the stream: queued operations drain with their real
// results, later ones (a second Close included) fail with ErrStreamClosed,
// and the writer goroutine exits. A hub stream leaves its hub; on a
// durable hub Close takes a final checkpoint and releases the WAL — the
// state stays on disk for the next OpenHub, and a checkpoint failure is
// reported (wrapping ErrPersist) but the stream still closes.
func (s *Stream) Close() error {
	if h := s.hub; h != nil {
		h.mu.Lock()
		if h.streams[s.name] == s {
			delete(h.streams, s.name)
		}
		h.mu.Unlock()
	}
	return s.shutdown()
}

// shutdown ends the stream: the closed flag fences new operations, the
// queued ones drain with their real results, and the writer goroutine
// finalizes persistence (final checkpoint + WAL release) and exits. Every
// call after the first returns ErrStreamClosed.
func (s *Stream) shutdown() error {
	op := &writeOp{kind: opClose, done: make(chan struct{})}
	s.qmu.Lock()
	if s.closed.Load() {
		s.qmu.Unlock()
		return fmt.Errorf("%w: %q", ErrStreamClosed, s.name)
	}
	s.closed.Store(true)
	s.ops <- op
	s.qmu.Unlock()
	<-op.done
	close(s.done)
	return op.err
}

// Writer-pipeline sizing. The queue bound is the backpressure mechanism: a
// producer enqueueing into a full queue blocks until the writer drains.
// The commit cap bounds how much work (and how many WAL bytes) one commit
// batch can accumulate before its callers see their results.
const (
	// writeQueueCap is the per-stream operation queue capacity.
	writeQueueCap = 256
	// maxCommitOps is the most queued operations one commit batch
	// coalesces (one engine application pass, one WAL append, one fsync).
	maxCommitOps = 128
)

// opKind discriminates queued write operations.
type opKind uint8

const (
	opAdd opKind = iota
	opAddBatch
	opFlush
	opCheckpoint
	opClose
	opHibernate
	opActivate
)

// coalescable reports whether ops of this kind may share a commit batch.
// Only the ingest ops coalesce: they are the high-rate path and their
// durability records can share one WAL append. The others are barriers —
// each runs in its own batch, after everything enqueued before it has
// committed (so Checkpoint captures a fully drained prefix).
func (k opKind) coalescable() bool {
	return k == opAdd || k == opAddBatch || k == opFlush
}

// needsResident reports whether an op of this kind must have the stream
// loaded in memory: these are the ops whose arrival transparently
// reactivates a hibernated stream. Hibernate itself does not (it is
// idempotent on a cold stream), and Checkpoint does not (a hibernated
// stream's on-disk checkpoint is already current — reloading it just to
// rewrite identical state would defeat hibernation).
func (k opKind) needsResident() bool {
	return k != opHibernate && k != opCheckpoint
}

// writeOp is one queued write operation: its inputs, and — once the
// writer goroutine closes done — its results. The completing channel close
// is the happens-before edge that lets the enqueueing goroutine read the
// result fields without further synchronization.
type writeOp struct {
	kind opKind

	// Inputs (by kind).
	post  Post   // opAdd
	posts []Post // opAddBatch
	now   int64  // opFlush

	// Results.
	err      error
	accepted int           // opAddBatch
	ps       PersistStats  // opCheckpoint
	stats    StreamStats   // opHibernate
	es       *engineStream // opActivate: the resident state
	// nrecs is how many WAL records this op contributed to its commit
	// batch; a batch-append failure is joined into the result of every
	// contributing op.
	nrecs int

	// done is closed by the committing goroutine when the op's results are set.
	done chan struct{}

	// Tracing (all zero on untraced ops — the *Context methods populate tr
	// from the caller's context). The writer goroutine appends child spans
	// to tr only between the queue receive and the done-channel close, and
	// the producer touches it only before the send and after the wake: the
	// same happens-before edges that protect the result fields make the
	// cross-goroutine span appends race-free without a lock.
	tr         *trace.Op
	enqueued   time.Time // queue entry
	applyStart time.Time // this op's apply slice of the commit pass
	applyDur   time.Duration
	committed  time.Time // stamped by commit just before done closes
}

// PipelineStats reports a stream's writer-pipeline counters (Fsyncs is 0
// unless the hub was opened with OpenHub).
type PipelineStats struct {
	// QueueDepth is the number of write operations waiting in the
	// stream's queue at the instant of the Stats call.
	QueueDepth int
	// Ops counts write operations committed over the stream's lifetime.
	Ops int64
	// Batches counts commit batches: each is one engine application pass
	// and, on a durable hub, at most one WAL append with one shared
	// fsync. Ops/Batches is the mean commit-batch size — the coalescing
	// factor producers actually achieved.
	Batches int64
	// Fsyncs counts WAL fsyncs issued for the stream (0 on in-memory
	// streams). Fsyncs/Ops is the per-operation durability cost group
	// commit amortizes: 1.0 is one fsync per operation (a lone producer at
	// FsyncAlways), and it falls toward 1/MeanBatchSize as concurrent
	// producers coalesce.
	Fsyncs int64
}

// MeanBatchSize returns the average number of operations per commit batch
// (0 before the first commit).
func (p PipelineStats) MeanBatchSize() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.Ops) / float64(p.Batches)
}

// FsyncsPerOp returns the average number of WAL fsyncs per committed
// operation (0 before the first commit, and on in-memory streams).
func (p PipelineStats) FsyncsPerOp() float64 {
	if p.Ops == 0 {
		return 0
	}
	return float64(p.Fsyncs) / float64(p.Ops)
}

// ResidencyStats reports a stream's hot/cold residency state and
// transition counters. See DESIGN.md §11.
type ResidencyStats struct {
	// Resident says whether the stream is currently loaded in memory.
	Resident bool
	// Hibernations and Activations count residency transitions over the
	// stream's lifetime (a cold-recovered stream starts at zero on both).
	Hibernations int64
	Activations  int64
	// LastActivation is the wall-clock cost of the most recent
	// reactivation — checkpoint load plus WAL tail replay (0 before the
	// first one).
	LastActivation time.Duration
	// ResidentBytes approximates the stream's in-memory footprint as of
	// its last commit (0 while hibernated). Advisory — element payloads
	// and window bookkeeping, not exact heap usage — and intentionally
	// excluded from exported state, so it never perturbs checkpoint
	// equality.
	ResidentBytes int64
}

// do executes op through the writer pipeline and returns it with its
// result fields set.
func (s *Stream) do(op *writeOp) *writeOp {
	if op.kind != opHibernate {
		s.touch()
	}
	op.done = make(chan struct{})
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if op.tr != nil {
		op.enqueued = time.Now()
	}
	s.qmu.Lock()
	if s.closed.Load() {
		s.qmu.Unlock()
		op.err = fmt.Errorf("%w: %q", ErrStreamClosed, s.name)
		return op
	}
	s.ops <- op // blocks when the queue is full: backpressure
	s.qmu.Unlock()
	<-op.done
	if op.tr != nil && !op.committed.IsZero() {
		// The gap between the writer finishing the op and this producer
		// waking with the result — scheduler latency the aggregate commit
		// histogram can't see per op.
		op.tr.Child("future.completion", op.committed, time.Since(op.committed))
	}
	return op
}

// writerLoop is the stream's single writer: it drains the op queue,
// coalescing adjacent ingest ops into commit batches, until the close op
// arrives. Every op that entered the queue is completed — the close path
// enqueues its op under qmu after setting the closed flag, so the loop
// never abandons a waiting caller.
func (s *Stream) writerLoop() {
	batch := make([]*writeOp, 0, maxCommitOps)
	var carry *writeOp
	for {
		var op *writeOp
		if carry != nil {
			op, carry = carry, nil
		} else {
			op = s.next()
		}
		if op.kind == opClose {
			if s.pers != nil {
				op.err = s.pers.finalize(s.stp.Load())
			}
			close(op.done)
			return
		}
		batch = append(batch[:0], op)
		if op.kind.coalescable() {
			// Gather the batch in passes: drain the queue, and while the
			// in-flight counter shows producers that have not enqueued
			// yet — typically the herd just woken by the previous
			// commit's completions — yield once to let them, so the
			// batch (and its shared fsync) covers the whole herd. The
			// writer otherwise outruns producer wake-up and group commit
			// shrinks toward batches of one (≈ 2 instead of ≈ 5.5 at 8
			// producers, DESIGN.md §10; pronounced at GOMAXPROCS=1, where
			// the writer is never preempted between commits). A lone
			// producer never trips the yield: its op is the whole
			// in-flight population, so it commits at once.
			for tries := 0; len(batch) < maxCommitOps && carry == nil; {
				var next *writeOp
				select {
				case next = <-s.ops:
				default:
				}
				if next != nil {
					if !next.kind.coalescable() {
						carry = next // barrier op: runs alone, next iteration
						break
					}
					batch = append(batch, next)
					continue
				}
				if tries >= 2 || int64(len(batch)) >= s.inflight.Load() {
					break
				}
				tries++
				runtime.Gosched()
			}
		}
		s.commit(batch)
		// Drop the completed ops' pointers: the reused backing array
		// would otherwise pin a big batch's posts (and contexts' trace
		// ops) across an arbitrarily long run of small batches.
		clear(batch)
	}
}

// next waits for the writer's next op. While it waits, the live WAL's
// tick (nil under FsyncAlways and FsyncNever, and with no WAL open: an
// in-memory, hibernated or closed stream) fires the idle sync: the
// writer is the WAL's only owner, so it syncs the tail an append left
// dirty. A failed sync fails the WAL — every later append reports it,
// wrapped in ErrPersist, until a checkpoint resets the log — and is
// logged here, where no caller is waiting for it.
func (s *Stream) next() *writeOp {
	for {
		var wal *persist.WAL
		var tick <-chan time.Time
		if s.pers != nil {
			if wal = s.pers.walp.Load(); wal != nil {
				tick = wal.Tick()
			}
		}
		select {
		case op := <-s.ops:
			return op
		case <-tick:
			if err := wal.Sync(); err != nil {
				s.pers.hp.logger().Warn("idle WAL sync failed; appends fail until the next checkpoint",
					"stream", s.name, "error", err)
			}
		}
	}
}

// commit applies one batch of operations and makes it durable: an apply
// pass in queue order (each bucket it completes is published on the spot),
// then — on a durable hub — one WAL append covering every accepted
// operation, with one fsync shared by the batch, then the auto-checkpoint
// trigger, and finally the completion of every caller's op.
//
// Atomicity is per operation, not per batch: each op's acceptance and
// result are decided individually (batch[i] failing never rolls back
// batch[i-1]), and a WAL-append failure is joined into the result of
// exactly the ops whose records were in the failed append — their effects
// are in memory but not durable.
func (s *Stream) commit(batch []*writeOp) {
	commitStart := time.Now()
	batchSeq := s.statBatches.Load() + 1
	defer func() { observeCommit(len(batch), time.Since(commitStart)) }()
	// actStart/actDur capture a reactivation performed on behalf of this
	// batch, attributed to every traced op that rode it; actPh carries its
	// phase breakdown for the stream.activate child spans.
	var actStart time.Time
	var actDur time.Duration
	var actPh *activationPhases
	es := s.stp.Load()
	if es == nil {
		// Hibernated. Reactivate if any op in the batch needs the stream
		// in memory; an activation failure (corrupt checkpoint, I/O error)
		// fails the whole batch — the stream stays hibernated and the
		// next touch retries.
		needs := false
		for _, op := range batch {
			if op.kind.needsResident() {
				needs = true
				break
			}
		}
		if needs {
			var err error
			actStart = time.Now()
			if es, actPh, err = s.activate(); err != nil {
				err = fmt.Errorf("reactivating %q: %w", s.name, err)
				for _, op := range batch {
					op.err = err
					close(op.done)
				}
				return
			}
			actDur = time.Since(actStart)
		}
	}
	if s.pers != nil {
		for _, op := range batch {
			if op.kind.coalescable() {
				// Any ingest attempt can move the stream past its
				// checkpoint (even a rejected duplicate advances the
				// window first), so the checkpoint is stale from here
				// until the next one is taken.
				s.pers.ckptCurrent = false
				break
			}
		}
	}
	recs := s.recs[:0]
	for _, op := range batch {
		if op.tr != nil {
			op.applyStart = time.Now()
		}
		switch op.kind {
		case opAdd:
			op.err = es.add(op.post)
			if op.err == nil && s.pers != nil {
				recs = append(recs, postRecord(op.post))
				op.nrecs = 1
			}
		case opAddBatch:
			for _, p := range op.posts {
				if op.err = es.add(p); op.err != nil {
					break
				}
				op.accepted++
			}
			if s.pers != nil {
				for _, p := range op.posts[:op.accepted] {
					recs = append(recs, postRecord(p))
				}
				op.nrecs = op.accepted
			}
		case opFlush:
			op.err = es.flush(op.now)
			if op.err == nil && s.pers != nil {
				recs = append(recs, persist.Record{Kind: persist.KindFlush, FlushNow: op.now})
				op.nrecs = 1
			}
		case opCheckpoint:
			if s.pers == nil {
				op.err = fmt.Errorf("%w: stream %q", ErrPersistDisabled, s.name)
			} else if es == nil {
				// Hibernated: the on-disk checkpoint already covers every
				// durable op — report the counters without reloading.
				op.ps = s.pers.stats()
			} else if op.err = s.pers.checkpoint(es); op.err == nil {
				op.ps = s.pers.stats()
			}
		case opHibernate:
			if op.err = s.hibernate(es); op.err == nil {
				es = nil // barrier: alone in its batch, nothing else uses it
				// Read here, on the writer goroutine: a reactivation is an
				// op behind this one, so these are the stats of the
				// hibernated stream whatever races the caller's return.
				op.stats = s.Stats()
			}
		case opActivate:
			op.es = es
		}
		if op.tr != nil {
			op.applyDur = time.Since(op.applyStart)
		}
	}

	var walT persist.BatchTimings
	if s.pers != nil && len(recs) > 0 {
		// One append, one shared fsync, for the whole batch. The Bucket
		// field is diagnostic (recovery keys off Seq alone); records are
		// stamped with the bucket published at commit time.
		bucket := es.engine.Stats().Buckets
		for i := range recs {
			recs[i].Bucket = bucket
		}
		if err := s.pers.appendBatchTimed(recs, &walT); err != nil {
			for _, op := range batch {
				if op.nrecs > 0 {
					op.err = errors.Join(op.err, err)
				}
			}
		}
		// The trigger runs once per committed batch, after its append
		// (appendBatchTimed says why not before), and also when the
		// append failed: the failed batch's records are not in the log —
		// the checkpoint captures their effect and its Reset truncates
		// any partial frame — and a checkpoint is what heals a failed
		// WAL. A failure surfaces on the last op that contributed
		// records.
		if err := s.pers.maybeCheckpoint(es); err != nil {
			for i := len(batch) - 1; i >= 0; i-- {
				if batch[i].nrecs > 0 {
					batch[i].err = errors.Join(batch[i].err, err)
					break
				}
			}
		}
	}

	// Recycle the record scratch with its payload pointers (post text,
	// refs) dropped, so the buffer's capacity survives but a big batch's
	// posts do not outlive their commit.
	clear(recs)
	s.recs = recs[:0]

	if es != nil {
		s.residentBytes.Store(es.approxResidentBytes())
	}
	s.statOps.Add(int64(len(batch)))
	s.statBatches.Add(1)

	// Span attribution for traced ops. Each traced op gets its own
	// queue-wait and apply slice; the commit-batch span (and the WAL
	// append/fsync spans under it) is shared by the whole batch, with
	// batch.seq/batch.ops linking the coalesced ops' traces together.
	for _, op := range batch {
		t := op.tr
		if t == nil {
			continue
		}
		t.SetStream(s.name)
		if !op.enqueued.IsZero() {
			t.Child("queue.wait", op.enqueued, commitStart.Sub(op.enqueued))
		}
		cb := t.Child("commit.batch", commitStart, time.Since(commitStart),
			trace.Int("batch.ops", int64(len(batch))),
			trace.Int("batch.seq", batchSeq))
		if actDur > 0 {
			act := t.ChildOf(cb, "stream.activate", actStart, actDur)
			if ph := actPh; ph != nil {
				if ph.ckptDur > 0 {
					t.ChildOf(act, "checkpoint.load", ph.ckptStart, ph.ckptDur)
				}
				if ph.restoreDur > 0 {
					t.ChildOf(act, "state.restore", ph.restoreStart, ph.restoreDur)
				}
				if ph.replayDur > 0 {
					t.ChildOf(act, "wal.replay", ph.replayStart, ph.replayDur)
				}
			}
		}
		if !op.applyStart.IsZero() {
			t.ChildOf(cb, "engine.apply", op.applyStart, op.applyDur)
		}
		if walT.AppendDur > 0 && op.nrecs > 0 {
			t.ChildOf(cb, "wal.append", walT.AppendStart, walT.AppendDur,
				trace.Int("wal.records", int64(op.nrecs)))
			if walT.FsyncDur > 0 {
				t.ChildOf(cb, "wal.fsync", walT.FsyncStart, walT.FsyncDur)
			}
		}
		op.committed = time.Now()
	}

	for _, op := range batch {
		close(op.done)
	}
}

// setResident makes es the stream's resident state, its standing queries
// the ones es fires.
func (s *Stream) setResident(es *engineStream) {
	es.subs = &s.subs
	s.stp.Store(es)
	s.residentBytes.Store(es.approxResidentBytes())
}

// hibernate executes the hot→cold transition on the commit path: the
// durable state is made current (checkpoint, unless already current), the
// WAL is released, and the in-memory state is dropped. In-flight queries
// that pinned the state keep their snapshot — its memory is reclaimed
// when the last of them finishes. A checkpoint failure aborts the
// transition (the stream stays resident rather than lose state).
func (s *Stream) hibernate(es *engineStream) error {
	if es == nil {
		return nil // already hibernated: idempotent
	}
	if s.pers == nil {
		return fmt.Errorf("%w: cannot hibernate in-memory stream %q", ErrPersistDisabled, s.name)
	}
	// Held until the resident state is gone: a Subscribe either registers
	// before the busy check, and the stream stays resident, or finds it
	// hibernated afterwards and reactivates it.
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	if n := len(s.subs.list); n > 0 {
		// Subscriptions live in memory only; releasing the stream would
		// silently drop them.
		return fmt.Errorf("%w: stream %q has %d standing queries", ErrStreamBusy, s.name, n)
	}
	if !s.pers.ckptCurrent {
		if err := s.pers.checkpoint(es); err != nil {
			return err
		}
	}
	err := s.pers.release()
	// Publish the final counters before the state pointer goes nil, so a
	// Stats racing the transition never sees a hibernated stream without
	// its last-known numbers.
	last := es.stats()
	s.lastStats.Store(&last)
	s.stp.Store(nil)
	s.residentBytes.Store(0)
	s.hibernations.Add(1)
	obsResHibernations.Inc()
	return err
}

// activate executes the cold→hot transition on the commit path: load
// checkpoint + WAL tail back into memory. It evicts nothing — the tier may
// run over its budget until the next sweep (Hub.EnforceResidency). The
// returned phase breakdown feeds the stream.activate child spans.
func (s *Stream) activate() (*engineStream, *activationPhases, error) {
	if s.pers == nil {
		return nil, nil, fmt.Errorf("%w: stream %q has no durable state to reactivate", ErrPersistDisabled, s.name)
	}
	start := time.Now()
	ph := &activationPhases{}
	es, err := s.pers.resume(s.model, s.opts, ph)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	s.setResident(es)
	s.activations.Add(1)
	s.lastActivationNs.Store(elapsed.Nanoseconds())
	obsResActivations.Inc()
	obsResActivationDuration.ObserveDuration(elapsed)
	return es, ph, nil
}

// postRecord builds the WAL record of one accepted post (Seq and Bucket
// are stamped at append time).
func postRecord(p Post) persist.Record {
	return persist.Record{
		Kind: persist.KindPost,
		Post: persist.PostRec{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs},
	}
}
