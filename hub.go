package ksir

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/residency"
	"github.com/social-streams/ksir/internal/trace"
)

// Hub is a named, multi-tenant registry of streams — the deployment §2
// motivates ("thousands of users submit different queries at the same
// time") widened to many tenants: each scenario (a city's feed, one
// conference's papers, a product's mentions) gets its own named stream
// with its own window, model and standing queries.
//
// Hub also moves the single-writer discipline into the library: every
// stream is wrapped in a StreamHandle whose write operations (Add,
// AddBatch, Flush, Checkpoint, Subscribe, Unsubscribe) are
// executed by one writer goroutine per stream, fed through a bounded
// operation queue — so wire servers and multi-goroutine producers stop
// hand-rolling their own locks, and adjacent operations from concurrent
// producers coalesce into commit batches that share one WAL append and
// one fsync (see StreamHandle). Queries stay lock-free (they read the
// engine's published snapshot) and never contend with writers — on the
// same stream or any other.
//
// A Hub opened with OpenHub is additionally durable: stream state is
// write-ahead logged and checkpointed under a data directory, and
// recovered on the next OpenHub (see persistence.go).
//
// Lifecycle: every registered stream owns a writer goroutine, released
// only by Close/CloseAll, and a durable hub with a residency budget runs
// one background sweeper until CloseAll. Nothing else runs, at any fsync
// policy: the writer also owns its stream's WAL and runs the FsyncInterval
// idle sync itself while it waits for work. A hub that is dropped without
// being closed leaks those goroutines (and the streams they pin) — close
// hubs you abandon, in-memory ones included.
//
// All Hub methods are safe for concurrent use.
type Hub struct {
	mu      sync.RWMutex
	streams map[string]*StreamHandle
	// p is the durability configuration (nil for an in-memory hub).
	p *hubPersist

	// stopSweeper ends the hub's one background goroutine and waits for it
	// to exit; nil on a hub that runs none (see startSweeper).
	stopSweeper func()
}

// NewHub creates an empty registry. Call CloseAll when done with it:
// each stream's writer goroutine runs until its stream is closed.
func NewHub() *Hub {
	return &Hub{streams: make(map[string]*StreamHandle)}
}

// validName rejects names that cannot round-trip through a URL path
// segment or an index listing.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty stream name", ErrBadOptions)
	}
	if len(name) > 128 {
		return fmt.Errorf("%w: stream name longer than 128 bytes", ErrBadOptions)
	}
	if strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("%w: stream name %q contains '/' or a space", ErrBadOptions, name)
	}
	// Control characters (CR/LF/TAB/...) would survive into protocol
	// lines — SSE comments, logs, listings — as raw line breaks.
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("%w: stream name contains control character %q", ErrBadOptions, r)
		}
	}
	// "." and ".." survive url.PathEscape but are path-cleaned away by
	// HTTP routers, leaving the stream unreachable over the wire.
	if name == "." || name == ".." {
		return fmt.Errorf("%w: stream name %q is a path dot segment", ErrBadOptions, name)
	}
	return nil
}

// Create registers a new stream under name, built over m with the given
// options. It fails with ErrStreamExists if the name is taken and
// ErrBadOptions for an invalid name or configuration. On a durable hub the
// stream's directory, manifest and WAL are provisioned before Create
// returns (and a leftover directory for the name is ErrStreamExists —
// closed streams keep their durable state).
func (h *Hub) Create(name string, m *Model, opts Options) (*StreamHandle, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	st, err := New(m, opts)
	if err != nil {
		return nil, err
	}
	return h.register(name, st, st.Model(), st.opts, nil)
}

// register inserts a handle under name and starts its writer goroutine.
// st may be nil (cold recovery under a residency budget): the handle starts
// hibernated, and everything needed to bring the stream back — model and
// resolved options — lives on the handle itself. Recovery brings the
// stream's durability state along; Create passes none, and on a durable
// hub the on-disk state is provisioned here — directory, manifest and WAL —
// under the hub lock, before the handle is reachable through Get: a
// concurrently created handle can never be observed without its
// persistence attached (writes on it would bypass the WAL).
func (h *Hub) register(name string, st *Stream, m *Model, opts Options, pers *streamPersist) (*StreamHandle, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.streams[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	if pers == nil && h.p != nil {
		var err error
		if pers, err = h.p.initStream(name, opts); err != nil {
			return nil, err
		}
	}
	hs := &StreamHandle{
		name:  name,
		hub:   h,
		model: m,
		opts:  opts,
		pers:  pers,
		done:  make(chan struct{}),
		ops:   make(chan *writeOp, writeQueueCap),
	}
	hs.stp.Store(st)
	hs.lastTouch.Store(time.Now().UnixNano())
	if st != nil {
		hs.residentBytes.Store(st.approxResidentBytes())
	}
	go hs.writerLoop()
	h.streams[name] = hs
	return hs, nil
}

// budget is the hot-tier budget the residency policy enforces (see
// PersistOptions.MaxResidentStreams / MaxResidentBytes); the zero Budget —
// every in-memory hub's — bounds nothing.
func (h *Hub) budget() residency.Budget {
	if h.p == nil {
		return residency.Budget{}
	}
	return residency.Budget{MaxStreams: h.p.opts.MaxResidentStreams, MaxBytes: h.p.opts.MaxResidentBytes}
}

// startSweeper launches the hub's one background goroutine, which
// re-applies the residency budget every ResidencySweep. A hub without a
// budget starts nothing. Called once, from OpenHub.
func (h *Hub) startSweeper() {
	if !h.budget().Enabled() {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(h.p.opts.ResidencySweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := h.EnforceResidency(); err != nil {
					h.p.logger().Warn("residency sweep failed", "error", err)
				}
			case <-stop:
				return
			}
		}
	}()
	// Waiting for the exit means no hibernate op can be enqueued after
	// CloseAll starts draining.
	h.stopSweeper = sync.OnceFunc(func() {
		close(stop)
		<-done
	})
}

// EnforceResidency applies the residency budget once, synchronously: it
// snapshots the resident streams, and the policy's walk
// (residency.Budget.Walk) hibernates them coldest first by last touch
// until the resident count and summed approximate bytes fit the
// configured budget; the number hibernated is returned. Streams that are
// busy (standing queries) or closing stay resident and the walk moves on
// to the next-coldest; other hibernation failures are joined into the
// returned error. The background sweeper calls this every ResidencySweep
// — it is the only place the hub evicts, so between two sweeps
// activations may take the tier over its budget; callers may also invoke
// it directly (e.g. before a measurement that wants a settled hot tier).
// Without a budget it hibernates nothing.
func (h *Hub) EnforceResidency() (int, error) {
	var hss []*StreamHandle
	var cands []residency.Candidate
	h.mu.RLock()
	for _, hs := range h.streams {
		if hs.stp.Load() != nil {
			hss = append(hss, hs)
			cands = append(cands, residency.Candidate{Touch: hs.lastTouch.Load(), Bytes: hs.residentBytes.Load()})
		}
	}
	h.mu.RUnlock()
	var errs []error
	victims := h.budget().Walk(cands, func(i int) bool {
		err := hss[i].Hibernate()
		if err != nil && !errors.Is(err, ErrStreamBusy) && !errors.Is(err, ErrStreamClosed) {
			errs = append(errs, fmt.Errorf("hibernating %q: %w", hss[i].name, err))
		}
		return err == nil
	})
	obsResEvictions.Add(uint64(len(victims)))
	return len(victims), errors.Join(errs...)
}

// Get returns the handle registered under name, or ErrUnknownStream.
func (h *Hub) Get(name string) (*StreamHandle, error) {
	h.mu.RLock()
	hs, ok := h.streams[name]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return hs, nil
}

// List returns the registered stream names, sorted.
func (h *Hub) List() []string {
	h.mu.RLock()
	names := make([]string, 0, len(h.streams))
	for name := range h.streams {
		names = append(names, name)
	}
	h.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered streams.
func (h *Hub) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.streams)
}

// Close unregisters name and marks its handle closed: operations already
// in the handle's queue drain and complete with their real results,
// subsequent ones fail with ErrStreamClosed. It returns ErrUnknownStream
// for a name that was never registered (or already closed). On a durable
// hub, Close takes a final checkpoint after the drain and releases the
// stream's WAL — the durable state stays on disk and is recovered by the
// next OpenHub; a checkpoint failure is reported (wrapping ErrPersist) but
// the stream still closes.
func (h *Hub) Close(name string) error {
	h.mu.Lock()
	hs, ok := h.streams[name]
	delete(h.streams, name)
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return hs.shutdown()
}

// CloseAll closes every registered stream — the graceful-shutdown sweep:
// on a durable hub each stream drains its queue and takes its final
// checkpoint, and every handle's Done channel closes so SSE consumers and
// other long-lived readers shut down. Errors are joined; streams close
// regardless.
func (h *Hub) CloseAll() error {
	if h.stopSweeper != nil {
		h.stopSweeper()
	}
	var errs []error
	for _, name := range h.List() {
		if err := h.Close(name); err != nil && !errors.Is(err, ErrUnknownStream) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
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
	opSubscribe
	opUnsubscribe
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
// idempotent on a cold stream), Unsubscribe does not (a hibernated stream
// has no live subscriptions to remove), and Checkpoint does not (a
// hibernated stream's on-disk checkpoint is already current — reloading
// it just to rewrite identical state would defeat hibernation).
func (k opKind) needsResident() bool {
	switch k {
	case opHibernate, opUnsubscribe, opCheckpoint:
		return false
	}
	return true
}

// writeOp is one queued write operation: its inputs, and — once the
// writer goroutine closes done — its results. The completing channel close
// is the happens-before edge that lets the enqueueing goroutine read the
// result fields without further synchronization.
type writeOp struct {
	kind opKind

	// Inputs (by kind).
	post    Post              // opAdd
	posts   []Post            // opAddBatch
	now     int64             // opFlush
	ctx     context.Context   // opSubscribe
	q       Query             // opSubscribe
	every   time.Duration     // opSubscribe
	handler func(Result)      // opSubscribe
	sopts   []SubscribeOption // opSubscribe
	sub     *Subscription     // opUnsubscribe in; opSubscribe out

	// Results.
	err      error
	accepted int          // opAddBatch
	ps       PersistStats // opCheckpoint
	stats    StreamStats  // opHibernate
	stOut    *Stream      // opActivate: the resident stream
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

// PipelineStats reports a stream's writer-pipeline counters (zero-valued
// on a raw Stream, and with Fsyncs pinned to 0 on in-memory hubs).
type PipelineStats struct {
	// QueueDepth is the number of write operations waiting in the
	// handle's queue at the instant of the Stats call.
	QueueDepth int
	// Ops counts write operations committed over the handle's lifetime.
	Ops int64
	// Batches counts commit batches: each is one engine application pass
	// and, on a durable hub, at most one WAL append with one shared
	// fsync. Ops/Batches is the mean commit-batch size — the coalescing
	// factor producers actually achieved.
	Batches int64
	// Fsyncs counts WAL fsyncs issued for the stream (0 on in-memory
	// hubs). Fsyncs/Ops is the per-operation durability cost group commit
	// amortizes: 1.0 is one fsync per operation (a lone producer at
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
// operation (0 before the first commit, and on in-memory hubs).
func (p PipelineStats) FsyncsPerOp() float64 {
	if p.Ops == 0 {
		return 0
	}
	return float64(p.Fsyncs) / float64(p.Ops)
}

// StreamHandle is a Hub-managed stream. Write operations are enqueued onto
// a bounded per-stream queue and executed by one writer goroutine (the
// single-writer ingest pipeline), so any number of goroutines may call
// them; queries and stats bypass the pipeline entirely and read the
// published snapshot, as on a raw Stream.
//
// The writer coalesces adjacent queued ingest operations (Add, AddBatch,
// Flush) into a commit batch: one pass of engine application — one snapshot
// publish per bucket the batch completes — and, on a durable hub, one WAL
// append whose fsync (under FsyncAlways) is shared by the whole batch.
// Coalescing is invisible in the results: every
// operation completes with exactly the outcome it would have had committed
// alone — the same accepted prefixes, the same typed sentinels — because
// acceptance decisions are made per operation, in queue order. Checkpoint,
// Subscribe and Unsubscribe are commit barriers: each executes alone,
// after every operation enqueued before it has committed.
//
// Backpressure: a full queue blocks producers until the writer drains.
// PipelineStats (via Stats) reports the live queue depth and the realized
// coalescing.
type StreamHandle struct {
	name string
	hub  *Hub
	// stp is the resident stream, nil while hibernated. Only the commit
	// path stores it (residency transitions are commit barriers); queries
	// Load it and pin whatever snapshot they find — a stream hibernated
	// out from under an in-flight query stays reachable (and thus alive)
	// through the query's own pointer until it finishes.
	stp atomic.Pointer[Stream]
	// model and opts are everything needed to rebuild the stream from its
	// durable state; both are fixed at registration.
	model *Model
	opts  Options

	// qmu serializes enqueues with shutdown: the closed flag and the
	// channel send are checked-and-done under it, so no operation can
	// slip into the queue after the close op that ends the writer loop.
	qmu    sync.Mutex
	ops    chan *writeOp
	closed atomic.Bool   // fail-fast flag; reads must never contend with writers
	done   chan struct{} // closed by Hub.Close; see Done

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

	// pers is the stream's durability state (nil on an in-memory hub),
	// mutated only by the writer goroutine. The commit path is the WAL
	// append point: every accepted write is logged before its operation
	// completes.
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

// Name returns the name the handle is registered under.
func (hs *StreamHandle) Name() string { return hs.name }

// Stream returns the underlying stream for read-only use, or nil while
// the stream is hibernated. Callers must not invoke its write methods
// directly — that would bypass the handle's writer pipeline. Prefer the
// handle's residency-independent accessors (Options, Model, Stats),
// which work whether or not the stream is loaded.
func (hs *StreamHandle) Stream() *Stream { return hs.stp.Load() }

// Options returns the stream's resolved options, without touching its
// residency. Lambda points at a copy of the stream's λ.
func (hs *StreamHandle) Options() Options { return hs.opts.clone() }

// Model returns the model the stream runs against, without touching its
// residency.
func (hs *StreamHandle) Model() *Model { return hs.model }

// Resident reports whether the stream is currently loaded in memory.
// Operations work either way — the first touching one reactivates a
// hibernated stream.
func (hs *StreamHandle) Resident() bool { return hs.stp.Load() != nil }

// touch refreshes the handle's eviction clock.
func (hs *StreamHandle) touch() { hs.lastTouch.Store(time.Now().UnixNano()) }

// do executes op through the writer pipeline and returns it with its
// result fields set.
func (hs *StreamHandle) do(op *writeOp) *writeOp {
	if op.kind != opHibernate {
		hs.touch()
	}
	op.done = make(chan struct{})
	hs.inflight.Add(1)
	defer hs.inflight.Add(-1)
	if op.tr != nil {
		op.enqueued = time.Now()
	}
	hs.qmu.Lock()
	if hs.closed.Load() {
		hs.qmu.Unlock()
		op.err = fmt.Errorf("%w: %q", ErrStreamClosed, hs.name)
		return op
	}
	hs.ops <- op // blocks when the queue is full: backpressure
	hs.qmu.Unlock()
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
func (hs *StreamHandle) writerLoop() {
	batch := make([]*writeOp, 0, maxCommitOps)
	var carry *writeOp
	for {
		var op *writeOp
		if carry != nil {
			op, carry = carry, nil
		} else {
			op = hs.next()
		}
		if op.kind == opClose {
			if hs.pers != nil {
				op.err = hs.pers.finalize(hs.stp.Load())
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
				case next = <-hs.ops:
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
				if tries >= 2 || int64(len(batch)) >= hs.inflight.Load() {
					break
				}
				tries++
				runtime.Gosched()
			}
		}
		hs.commit(batch)
		// Drop the completed ops' pointers: the reused backing array
		// would otherwise pin a big batch's posts (and handlers, and
		// contexts) across an arbitrarily long run of small batches.
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
func (hs *StreamHandle) next() *writeOp {
	for {
		var wal *persist.WAL
		var tick <-chan time.Time
		if hs.pers != nil {
			if wal = hs.pers.walp.Load(); wal != nil {
				tick = wal.Tick()
			}
		}
		select {
		case op := <-hs.ops:
			return op
		case <-tick:
			if err := wal.Sync(); err != nil {
				hs.pers.hp.logger().Warn("idle WAL sync failed; appends fail until the next checkpoint",
					"stream", hs.name, "error", err)
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
func (hs *StreamHandle) commit(batch []*writeOp) {
	commitStart := time.Now()
	batchSeq := hs.statBatches.Load() + 1
	defer func() { observeCommit(len(batch), time.Since(commitStart)) }()
	// actStart/actDur capture a reactivation performed on behalf of this
	// batch, attributed to every traced op that rode it; actPh carries its
	// phase breakdown for the stream.activate child spans.
	var actStart time.Time
	var actDur time.Duration
	var actPh *activationPhases
	st := hs.stp.Load()
	if st == nil {
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
			if st, actPh, err = hs.activate(); err != nil {
				err = fmt.Errorf("reactivating %q: %w", hs.name, err)
				for _, op := range batch {
					op.err = err
					close(op.done)
				}
				return
			}
			actDur = time.Since(actStart)
		}
	}
	if hs.pers != nil {
		for _, op := range batch {
			if op.kind.coalescable() {
				// Any ingest attempt can move the stream past its
				// checkpoint (even a rejected duplicate advances the
				// window first), so the checkpoint is stale from here
				// until the next one is taken.
				hs.pers.ckptCurrent = false
				break
			}
		}
	}
	recs := hs.recs[:0]
	for _, op := range batch {
		if op.tr != nil {
			op.applyStart = time.Now()
		}
		switch op.kind {
		case opAdd:
			op.err = st.Add(op.post)
			if op.err == nil && hs.pers != nil {
				recs = append(recs, postRecord(op.post))
				op.nrecs = 1
			}
		case opAddBatch:
			op.accepted, op.err = st.AddBatch(op.posts)
			if hs.pers != nil {
				for _, p := range op.posts[:op.accepted] {
					recs = append(recs, postRecord(p))
				}
				op.nrecs = op.accepted
			}
		case opFlush:
			op.err = st.Flush(op.now)
			if op.err == nil && hs.pers != nil {
				recs = append(recs, persist.Record{Kind: persist.KindFlush, FlushNow: op.now})
				op.nrecs = 1
			}
		case opSubscribe:
			op.sub, op.err = st.Subscribe(op.ctx, op.q, op.every, op.handler, op.sopts...)
		case opUnsubscribe:
			if st != nil { // a hibernated stream has no live subscriptions
				st.Unsubscribe(op.sub)
			}
		case opCheckpoint:
			if hs.pers == nil {
				op.err = fmt.Errorf("%w: stream %q", ErrPersistDisabled, hs.name)
			} else if st == nil {
				// Hibernated: the on-disk checkpoint already covers every
				// durable op — report the counters without reloading.
				op.ps = hs.pers.stats()
			} else if op.err = hs.pers.checkpoint(st); op.err == nil {
				op.ps = hs.pers.stats()
			}
		case opHibernate:
			if op.err = hs.hibernate(st); op.err == nil {
				st = nil // barrier: alone in its batch, nothing else uses it
				// Read here, on the writer goroutine: a reactivation is an
				// op behind this one, so these are the stats of the
				// hibernated stream whatever races the caller's return.
				op.stats = hs.Stats()
			}
		case opActivate:
			op.stOut = st
		}
		if op.tr != nil {
			op.applyDur = time.Since(op.applyStart)
		}
	}

	var walT persist.BatchTimings
	if hs.pers != nil && len(recs) > 0 {
		// One append, one shared fsync, for the whole batch. The Bucket
		// field is diagnostic (recovery keys off Seq alone); records are
		// stamped with the bucket published at commit time.
		bucket := st.Stats().Bucket
		for i := range recs {
			recs[i].Bucket = bucket
		}
		if err := hs.pers.appendBatchTimed(recs, &walT); err != nil {
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
		if err := hs.pers.maybeCheckpoint(st); err != nil {
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
	hs.recs = recs[:0]

	if st != nil {
		hs.residentBytes.Store(st.approxResidentBytes())
	}
	hs.statOps.Add(int64(len(batch)))
	hs.statBatches.Add(1)

	// Span attribution for traced ops. Each traced op gets its own
	// queue-wait and apply slice; the commit-batch span (and the WAL
	// append/fsync spans under it) is shared by the whole batch, with
	// batch.seq/batch.ops linking the coalesced ops' traces together.
	for _, op := range batch {
		t := op.tr
		if t == nil {
			continue
		}
		t.SetStream(hs.name)
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

// hibernate executes the hot→cold transition on the commit path: the
// durable state is made current (checkpoint, unless already current), the
// WAL is released, and the in-memory stream is dropped. In-flight queries
// that pinned the stream keep their snapshot — its memory is reclaimed
// when the last of them finishes. A checkpoint failure aborts the
// transition (the stream stays resident rather than lose state).
func (hs *StreamHandle) hibernate(st *Stream) error {
	if st == nil {
		return nil // already hibernated: idempotent
	}
	if hs.pers == nil {
		return fmt.Errorf("%w: cannot hibernate in-memory stream %q", ErrPersistDisabled, hs.name)
	}
	if n := st.Subscriptions(); n > 0 {
		// Subscriptions live in memory only; releasing the stream would
		// silently drop them.
		return fmt.Errorf("%w: stream %q has %d standing queries", ErrStreamBusy, hs.name, n)
	}
	if !hs.pers.ckptCurrent {
		if err := hs.pers.checkpoint(st); err != nil {
			return err
		}
	}
	err := hs.pers.release()
	// Publish the final counters before the stream pointer goes nil, so a
	// Stats racing the transition never sees a hibernated stream without
	// its last-known numbers.
	s := st.Stats()
	hs.lastStats.Store(&s)
	hs.stp.Store(nil)
	hs.residentBytes.Store(0)
	hs.hibernations.Add(1)
	obsResHibernations.Inc()
	return err
}

// activate executes the cold→hot transition on the commit path: load
// checkpoint + WAL tail back into memory. It evicts nothing — the tier may
// run over its budget until the next sweep (Hub.EnforceResidency). The
// returned phase breakdown feeds the stream.activate child spans.
func (hs *StreamHandle) activate() (*Stream, *activationPhases, error) {
	if hs.pers == nil {
		return nil, nil, fmt.Errorf("%w: stream %q has no durable state to reactivate", ErrPersistDisabled, hs.name)
	}
	start := time.Now()
	ph := &activationPhases{}
	st, err := hs.pers.resume(hs.model, hs.opts, ph)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	hs.stp.Store(st)
	hs.residentBytes.Store(st.approxResidentBytes())
	hs.activations.Add(1)
	hs.lastActivationNs.Store(elapsed.Nanoseconds())
	obsResActivations.Inc()
	obsResActivationDuration.ObserveDuration(elapsed)
	return st, ph, nil
}

// ensureResident reactivates a hibernated stream through the writer
// pipeline and returns the resident stream. The activate op is a commit
// barrier, so exactly one activation runs no matter how many readers race
// it; the returned pointer stays valid for this caller even if the stream
// hibernates again immediately (snapshot pinning, see stp). A trace op on
// ctx receives the activation's pipeline spans (queue wait, commit batch,
// stream.activate).
func (hs *StreamHandle) ensureResident(ctx context.Context) (*Stream, error) {
	op := hs.do(&writeOp{kind: opActivate, tr: trace.FromContext(ctx)})
	if op.err != nil {
		return nil, op.err
	}
	return op.stOut, nil
}

// postRecord builds the WAL record of one accepted post (Seq and Bucket
// are stamped at append time).
func postRecord(p Post) persist.Record {
	return persist.Record{
		Kind: persist.KindPost,
		Post: persist.PostRec{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs},
	}
}

// shutdown ends the handle: the closed flag fences new operations, the
// queued ones drain with their real results, and the writer goroutine
// finalizes persistence (final checkpoint + WAL release) and exits. Called
// once, by Hub.Close, after the handle left the registry.
func (hs *StreamHandle) shutdown() error {
	op := &writeOp{kind: opClose, done: make(chan struct{})}
	hs.qmu.Lock()
	hs.closed.Store(true)
	hs.ops <- op
	hs.qmu.Unlock()
	<-op.done
	close(hs.done)
	return op.err
}

// Add appends one post through the writer pipeline. On a durable hub the
// accepted post is WAL-logged (sharing its commit batch's fsync) before
// Add returns; a logging failure is reported (wrapping ErrPersist) with
// the post already applied in memory.
func (hs *StreamHandle) Add(p Post) error {
	return hs.AddContext(context.Background(), p)
}

// AddContext is Add with trace propagation: when ctx carries a trace op
// (internal/trace, attached by the HTTP middleware or an embedding
// caller), the operation's pipeline breakdown — queue wait, commit batch,
// engine apply, WAL append, fsync, future completion — is recorded as
// child spans on it. The context does not cancel the write: once
// enqueued, an operation always commits.
func (hs *StreamHandle) AddContext(ctx context.Context, p Post) error {
	return hs.do(&writeOp{kind: opAdd, post: p, tr: trace.FromContext(ctx)}).err
}

// AddBatch appends posts in order, stopping at the first rejected post and
// reporting how many were accepted. On a durable hub the accepted prefix
// is WAL-logged even when a later post is rejected; if both an ingest
// rejection and a logging failure occur, the returned error joins them
// (errors.Is matches each), and on a logging failure the accepted prefix
// is in memory but not durable.
func (hs *StreamHandle) AddBatch(posts []Post) (accepted int, err error) {
	return hs.AddBatchContext(context.Background(), posts)
}

// AddBatchContext is AddBatch with trace propagation (see AddContext).
func (hs *StreamHandle) AddBatchContext(ctx context.Context, posts []Post) (accepted int, err error) {
	op := hs.do(&writeOp{kind: opAddBatch, posts: posts, tr: trace.FromContext(ctx)})
	return op.accepted, op.err
}

// Flush ingests everything buffered up to stream time now (WAL-logged as
// an explicit boundary on a durable hub).
func (hs *StreamHandle) Flush(now int64) error {
	return hs.FlushContext(context.Background(), now)
}

// FlushContext is Flush with trace propagation (see AddContext).
func (hs *StreamHandle) FlushContext(ctx context.Context, now int64) error {
	return hs.do(&writeOp{kind: opFlush, now: now, tr: trace.FromContext(ctx)}).err
}

// Checkpoint forces an immediate checkpoint: the stream's full state is
// serialized, the snapshot atomically replaces the previous one, and the
// WAL is truncated. It is a commit barrier — every operation enqueued
// before it is applied and WAL-logged first, so the checkpoint covers a
// fully drained prefix. It fails with ErrPersistDisabled on an in-memory
// hub. The returned stats reflect the stream just after the checkpoint.
func (hs *StreamHandle) Checkpoint() (PersistStats, error) {
	return hs.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint with trace propagation (see AddContext).
func (hs *StreamHandle) CheckpointContext(ctx context.Context) (PersistStats, error) {
	op := hs.do(&writeOp{kind: opCheckpoint, tr: trace.FromContext(ctx)})
	return op.ps, op.err
}

// Subscribe registers a standing query (see Stream.Subscribe) through the
// writer pipeline, so any goroutine may call it.
//
// Handlers fire on the stream's writer goroutine inside Add/Flush: a
// handler must not call the handle's write methods (the writer cannot
// drain its own queue — self-deadlock). To manage subscriptions from
// within a handler, cancel the subscription's context or use the Stream's
// own Subscribe/Unsubscribe — the handler is already on the writer
// goroutine, and both are re-entrancy-safe there.
func (hs *StreamHandle) Subscribe(ctx context.Context, q Query, every time.Duration, handler func(Result), opts ...SubscribeOption) (*Subscription, error) {
	op := hs.do(&writeOp{kind: opSubscribe, ctx: ctx, q: q, every: every, handler: handler, sopts: opts, tr: trace.FromContext(ctx)})
	return op.sub, op.err
}

// Unsubscribe removes a standing query, ordered with the writers. It is a
// no-op on a closed handle.
func (hs *StreamHandle) Unsubscribe(sub *Subscription) {
	hs.do(&writeOp{kind: opUnsubscribe, sub: sub})
}

// Hibernate checkpoints the stream and releases its in-memory state —
// window, archive, scorer caches, both ranked-list buffers — while the
// handle stays registered: the next Add, Query or Subscribe transparently
// reactivates it from the checkpoint (see DESIGN.md §11). Idempotent on
// an already-hibernated stream. It fails with ErrPersistDisabled on an
// in-memory hub and with ErrStreamBusy while standing queries are
// registered (unsubscribe them first). In-flight queries that pinned the
// stream's snapshot complete unaffected. Hubs with a residency budget
// call this automatically on the coldest streams; it is also useful
// directly when the caller knows a stream is going idle.
func (hs *StreamHandle) Hibernate() error {
	_, err := hs.HibernateContext(context.Background())
	return err
}

// HibernateContext is Hibernate with trace propagation (see AddContext).
// The returned stats are those of the stream as the hibernation itself
// left it — not resident — even when a concurrent operation reactivates
// the stream before the call returns; a later Stats call may already see
// it resident again.
func (hs *StreamHandle) HibernateContext(ctx context.Context) (StreamStats, error) {
	op := hs.do(&writeOp{kind: opHibernate, tr: trace.FromContext(ctx)})
	return op.stats, op.err
}

// Query answers a k-SIR query. Against a resident stream it never enters
// the writer pipeline: like Stream.Query it pins the published snapshot,
// so queries on any number of handles run in parallel with each other and
// with ingestion. Against a hibernated stream it first reactivates the
// stream through the pipeline (one activation, however many queries race
// it), then runs lock-free as usual.
func (hs *StreamHandle) Query(ctx context.Context, q Query) (Result, error) {
	if hs.closed.Load() {
		return Result{}, fmt.Errorf("%w: %q", ErrStreamClosed, hs.name)
	}
	st := hs.stp.Load()
	if st == nil {
		var err error
		if st, err = hs.ensureResident(ctx); err != nil {
			return Result{}, err
		}
	} else {
		hs.touch()
	}
	return st.Query(ctx, q)
}

// Explain recomputes a result's per-post contribution breakdown (see
// Stream.Explain). Lock-free like Query on a resident stream; reactivates
// a hibernated one.
func (hs *StreamHandle) Explain(res Result, q Query) ([]Explanation, error) {
	if hs.closed.Load() {
		return nil, fmt.Errorf("%w: %q", ErrStreamClosed, hs.name)
	}
	st := hs.stp.Load()
	if st == nil {
		var err error
		if st, err = hs.ensureResident(context.Background()); err != nil {
			return nil, err
		}
	} else {
		hs.touch()
	}
	return st.Explain(res, q)
}

// Stats reports the stream's counters as of the last published bucket,
// including the durability, writer-pipeline and residency counters.
// Lock-free like Query — and it NEVER reactivates a hibernated stream
// (monitoring sweeps across thousands of tenants must not churn the hot
// tier): a hibernated stream reports the engine counters captured at
// hibernation, and a cold-recovered stream that has never been touched
// reports them as zero until its first activation.
func (hs *StreamHandle) Stats() StreamStats {
	var s StreamStats
	st := hs.stp.Load()
	if st != nil {
		s = st.Stats()
	} else if last := hs.lastStats.Load(); last != nil {
		s = *last
		s.Subscriptions = 0 // hibernation refuses standing queries
	}
	if hs.pers != nil {
		s.Persist = hs.pers.stats()
	}
	s.Pipeline = PipelineStats{
		QueueDepth: len(hs.ops),
		Ops:        hs.statOps.Load(),
		Batches:    hs.statBatches.Load(),
	}
	if hs.pers != nil {
		s.Pipeline.Fsyncs = hs.pers.fsyncs()
	}
	s.Residency = ResidencyStats{
		Resident:       st != nil,
		Hibernations:   hs.hibernations.Load(),
		Activations:    hs.activations.Load(),
		LastActivation: time.Duration(hs.lastActivationNs.Load()),
		ResidentBytes:  hs.residentBytes.Load(),
	}
	return s
}

// ResidencyStats reports a hub-managed stream's hot/cold residency state
// and transition counters (zero-valued on a raw Stream, which is always
// resident). See DESIGN.md §11.
type ResidencyStats struct {
	// Resident says whether the stream is currently loaded in memory.
	Resident bool
	// Hibernations and Activations count residency transitions over the
	// handle's lifetime (a cold-recovered stream starts at zero on both).
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

// Done returns a channel closed when the stream is closed out of the Hub
// — the signal long-lived consumers (e.g. SSE connections) select on to
// shut down instead of waiting on a stream that will never ingest again.
func (hs *StreamHandle) Done() <-chan struct{} { return hs.done }
