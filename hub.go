package ksir

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/persist"
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
// AddBatch, Flush, Checkpoint, SwapModel, Subscribe, Unsubscribe) are
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
// only by Close/CloseAll. A hub that is dropped without being closed
// leaks those goroutines (and the streams they pin) — close hubs you
// abandon, in-memory ones included.
//
// All Hub methods are safe for concurrent use.
type Hub struct {
	mu      sync.RWMutex
	streams map[string]*StreamHandle
	// p is the durability configuration (nil for an in-memory hub).
	p *hubPersist
	// logger receives background warnings (residency sweep failures);
	// nil means slog.Default() at call time.
	logger *slog.Logger

	// Background hibernator (only running when a residency budget is
	// configured; see PersistOptions.MaxResidentStreams).
	hibStop chan struct{}
	hibDone chan struct{}
	hibOnce sync.Once

	// Ghost list: names of recently hibernated streams, keyed to an
	// eviction sequence so the oldest entries age out. A reactivation that
	// finds its name here was evicted too eagerly — it re-admits protected
	// (second-chance bit set) and counts a ghost hit.
	ghostMu  sync.Mutex
	ghost    map[string]uint64
	ghostSeq uint64

	// Background predictive prefetcher (PersistOptions.PrefetchSweep > 0).
	pfStop chan struct{}
	pfDone chan struct{}
	pfOnce sync.Once

	// Background back-buffer materializer (every durable hub): freshly
	// activated streams are queued here so their lazily deferred back
	// buffer is built off both the activation and the first-write path. A
	// full queue just drops the handoff — the first write pays the build.
	matq    chan matReq
	matStop chan struct{}
	matDone chan struct{}
	matOnce sync.Once

	// lastActivateNs is the hub-wide activation clock (UnixNano of the
	// most recent stream activation); the materializer defers builds
	// until it has been quiet for materializeDebounce.
	lastActivateNs atomic.Int64
}

// HubOption tunes a Hub created with NewHub.
type HubOption func(*Hub)

// WithLogger directs the hub's background warnings — residency sweep
// failures, for now — to l instead of slog.Default(). For a durable hub,
// set PersistOptions.Logger instead.
func WithLogger(l *slog.Logger) HubOption {
	return func(h *Hub) { h.logger = l }
}

// log returns the hub's logger, resolving nil to the process default so a
// logger installed with slog.SetDefault after NewHub is still honored.
func (h *Hub) log() *slog.Logger {
	if h.logger != nil {
		return h.logger
	}
	return slog.Default()
}

// NewHub creates an empty registry. Call CloseAll when done with it:
// each stream's writer goroutine runs until its stream is closed.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		streams: make(map[string]*StreamHandle),
		ghost:   make(map[string]uint64),
	}
	for _, o := range opts {
		o(h)
	}
	return h
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
func (h *Hub) Create(name string, m *Model, opts Options, sopts ...StreamOption) (*StreamHandle, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	st, err := New(m, opts, sopts...)
	if err != nil {
		return nil, err
	}
	return h.registerPersistent(name, st)
}

// Adopt registers an existing stream under name. The caller must stop
// writing to st directly: after Adopt, all writes go through the returned
// handle (which owns the stream's writer goroutine). On a durable hub the
// adopted stream's current state is checkpointed immediately, so it is
// durable from the moment Adopt returns.
func (h *Hub) Adopt(name string, st *Stream) (*StreamHandle, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("%w: nil stream", ErrBadOptions)
	}
	return h.registerPersistent(name, st)
}

// registerPersistent registers the stream and, on a durable hub,
// provisions its on-disk state first — directory, manifest, WAL, and the
// initial checkpoint when the stream already has ingested state (Adopt).
// Provisioning happens under the hub lock, before the handle is
// reachable through Get: a concurrently created handle can never be
// observed without its persistence attached (writes on it would bypass
// the WAL).
func (h *Hub) registerPersistent(name string, st *Stream) (*StreamHandle, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.streams[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	var pers *streamPersist
	if h.p != nil {
		var err error
		pers, err = h.p.initStream(name, st)
		if err != nil {
			return nil, err
		}
	}
	hs := h.newHandle(name, st, st.Model(), st.opts, st.cfg, pers)
	h.streams[name] = hs
	return hs, nil
}

// registerWith inserts a handle with its persistence state already
// attached (pers may be nil for in-memory streams).
func (h *Hub) registerWith(name string, st *Stream, pers *streamPersist) (*StreamHandle, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.streams[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	hs := h.newHandle(name, st, st.Model(), st.opts, st.cfg, pers)
	h.streams[name] = hs
	return hs, nil
}

// registerCold inserts a hibernated handle: no in-memory stream, the
// durable state untouched on disk until the first touching operation
// reactivates it (cold recovery under a residency budget).
func (h *Hub) registerCold(name string, m *Model, opts Options, cfg streamConfig, pers *streamPersist) (*StreamHandle, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.streams[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	hs := h.newHandle(name, nil, m, opts, cfg, pers)
	h.streams[name] = hs
	return hs, nil
}

// newHandle builds a handle and starts its writer goroutine. st may be nil
// (registerCold): the handle starts hibernated and every other field needed
// to bring the stream back — model, resolved options, config — lives on the
// handle itself.
func (h *Hub) newHandle(name string, st *Stream, m *Model, opts Options, cfg streamConfig, pers *streamPersist) *StreamHandle {
	hs := &StreamHandle{
		name: name,
		hub:  h,
		opts: opts,
		cfg:  cfg,
		pers: pers,
		done: make(chan struct{}),
		ops:  make(chan *writeOp, writeQueueCap),
	}
	hs.stp.Store(st)
	hs.model.Store(m)
	hs.lastTouch.Store(time.Now().UnixNano())
	if st != nil {
		hs.residentBytes.Store(st.approxResidentBytes())
	}
	go hs.writerLoop()
	return hs
}

// residencyBudgeted reports whether the hub has a hot-tier budget to
// enforce (see PersistOptions.MaxResidentStreams / MaxResidentBytes).
func (h *Hub) residencyBudgeted() bool {
	return h.p != nil && (h.p.opts.MaxResidentStreams > 0 || h.p.opts.MaxResidentBytes > 0)
}

// startHibernator launches the background residency sweep (no-op without
// a budget). Called once, from OpenHub.
func (h *Hub) startHibernator() {
	if !h.residencyBudgeted() {
		return
	}
	h.hibStop = make(chan struct{})
	h.hibDone = make(chan struct{})
	sweep := h.p.opts.ResidencySweep
	go func() {
		defer close(h.hibDone)
		t := time.NewTicker(sweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := h.EnforceResidency(); err != nil {
					h.log().Warn("residency sweep failed", "error", err)
				}
			case <-h.hibStop:
				return
			}
		}
	}()
}

// stopHibernator ends the background sweep and waits for it to exit, so
// no hibernate op can be enqueued after CloseAll starts draining.
func (h *Hub) stopHibernator() {
	if h.hibStop == nil {
		return
	}
	h.hibOnce.Do(func() { close(h.hibStop) })
	<-h.hibDone
}

// ghostRecord remembers a hibernated stream's name on the ghost list (under
// a residency budget only). The list is bounded at
// max(32, 2×MaxResidentStreams); the oldest entry ages out first.
func (h *Hub) ghostRecord(name string) {
	if !h.residencyBudgeted() {
		return
	}
	limit := 2 * h.p.opts.MaxResidentStreams
	if limit < 32 {
		limit = 32
	}
	h.ghostMu.Lock()
	defer h.ghostMu.Unlock()
	h.ghostSeq++
	h.ghost[name] = h.ghostSeq
	for len(h.ghost) > limit {
		oldName, oldSeq := "", uint64(0)
		for n, s := range h.ghost {
			if oldName == "" || s < oldSeq {
				oldName, oldSeq = n, s
			}
		}
		delete(h.ghost, oldName)
	}
}

// ghostTake consumes a ghost-list entry for name, reporting whether one
// existed — the activation path's "evicted too eagerly" signal.
func (h *Hub) ghostTake(name string) bool {
	h.ghostMu.Lock()
	defer h.ghostMu.Unlock()
	if _, ok := h.ghost[name]; !ok {
		return false
	}
	delete(h.ghost, name)
	return true
}

// startPrefetcher launches the background predictive prefetcher (no-op
// unless PrefetchSweep is set). Called once, from OpenHub.
func (h *Hub) startPrefetcher() {
	if h.p == nil || h.p.opts.PrefetchSweep <= 0 {
		return
	}
	h.pfStop = make(chan struct{})
	h.pfDone = make(chan struct{})
	sweep := h.p.opts.PrefetchSweep
	go func() {
		defer close(h.pfDone)
		t := time.NewTicker(sweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.prefetchSweep()
			case <-h.pfStop:
				return
			}
		}
	}()
}

// stopPrefetcher ends the prefetch sweep and waits for it to exit.
func (h *Hub) stopPrefetcher() {
	if h.pfStop == nil {
		return
	}
	h.pfOnce.Do(func() { close(h.pfStop) })
	<-h.pfDone
}

// prefetchSweep scans the hibernated streams once and enqueues a
// fire-and-forget activation for each one that is due — by standing hint
// (StreamHandle.Prefetch) or by its predicted next touch falling within
// the lookahead. Everything is best-effort and non-blocking: a stream
// whose queue is busy is simply picked up by a later sweep or by the
// demand operation it was predicted for.
func (h *Hub) prefetchSweep() {
	look := int64(h.p.opts.PrefetchLookahead)
	now := time.Now().UnixNano()
	h.mu.RLock()
	var due []*StreamHandle
	for _, hs := range h.streams {
		if hs.stp.Load() != nil || hs.pers == nil {
			continue
		}
		if hs.prefetchDue(now, look) {
			due = append(due, hs)
		}
	}
	h.mu.RUnlock()
	for _, hs := range due {
		hs.tryActivateAsync()
	}
}

// matReq is one queued background build; at is the activation time the
// debounce counts from.
type matReq struct {
	hs *StreamHandle
	at time.Time
}

// startMaterializer launches the background back-buffer builder (every
// durable hub: activations are lazy by default). Builds are debounced
// against the hub's activation clock: a queued build waits until no
// stream anywhere on the hub has activated for materializeDebounce. That
// buys two things. A stream churned straight back out of the hot tier
// (activated by one read, evicted by the next admission) never pays for a
// back buffer nobody will write to — materializeNow skips streams
// hibernated in the meantime. And during an activation storm (tenant
// churn, cold restart) the builder stays silent instead of stealing CPU
// from demand activations — a ~1ms build scheduled between two cold
// touches shows up directly in their queue-wait tail on small hosts.
// Streams that stay resident get their buffer built once the storm
// subsides, well before a typical first write; if a write lands sooner,
// it builds inline exactly as if there were no background task. Called
// once, from OpenHub.
func (h *Hub) startMaterializer() {
	if h.p == nil {
		return
	}
	h.matq = make(chan matReq, materializeQueueCap)
	h.matStop = make(chan struct{})
	h.matDone = make(chan struct{})
	go func() {
		defer close(h.matDone)
		timer := time.NewTimer(materializeDebounce)
		defer timer.Stop()
		for {
			select {
			case req := <-h.matq:
				for {
					due := req.at
					if last := time.Unix(0, h.lastActivateNs.Load()); last.After(due) {
						due = last
					}
					d := materializeDebounce - time.Since(due)
					if d <= 0 {
						break
					}
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-h.matStop:
						return
					}
				}
				req.hs.materializeNow()
			case <-h.matStop:
				return
			}
		}
	}()
}

// stopMaterializer ends the background materializer and waits for it to
// exit (any in-progress build completes first — it holds only the
// engine's writer lock, never a hub lock).
func (h *Hub) stopMaterializer() {
	if h.matStop == nil {
		return
	}
	h.matOnce.Do(func() { close(h.matStop) })
	<-h.matDone
}

// queueMaterialize hands a freshly activated stream to the background
// materializer, non-blocking: on a full queue the first write pays the
// build instead, exactly as if there were no background task.
func (h *Hub) queueMaterialize(hs *StreamHandle) {
	if h.matq == nil {
		return
	}
	select {
	case h.matq <- matReq{hs: hs, at: time.Now()}:
	default:
	}
}

// residencyCandidate is one resident stream considered for eviction.
type residencyCandidate struct {
	hs           *StreamHandle
	touch, bytes int64
}

// residentByCold snapshots the resident streams (except exclude), coldest
// first by last touch, plus their summed approximate bytes.
func (h *Hub) residentByCold(exclude *StreamHandle) ([]residencyCandidate, int64) {
	h.mu.RLock()
	cands := make([]residencyCandidate, 0, len(h.streams))
	var total int64
	for _, hs := range h.streams {
		if hs == exclude || hs.stp.Load() == nil {
			continue
		}
		b := hs.residentBytes.Load()
		total += b
		cands = append(cands, residencyCandidate{hs, hs.lastTouch.Load(), b})
	}
	h.mu.RUnlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	return cands, total
}

// EnforceResidency applies the residency budget once, synchronously:
// resident streams are hibernated, coldest first by last touch, until the
// resident count and summed approximate bytes fit the configured budget,
// and the number hibernated is returned. A first pass skips protected
// streams — second-chance bit set (touched again since admission) or
// prefetched-and-unconsumed — counting a save per skip; if the protected
// set alone still overflows the budget, a second pass demotes every
// remaining stream's bit (the clock hand has swept full circle) and evicts
// coldest-first, still sparing in-flight prefetches. Streams that are busy
// (standing queries) or closing are skipped; other hibernation failures
// are joined into the returned error. The background hibernator calls this
// every ResidencySweep; callers may also invoke it directly (e.g. before a
// measurement that wants a settled hot tier). Without a budget it does
// nothing.
func (h *Hub) EnforceResidency() (int, error) {
	if !h.residencyBudgeted() {
		return 0, nil
	}
	maxN, maxB := h.p.opts.MaxResidentStreams, h.p.opts.MaxResidentBytes
	cands, totalB := h.residentByCold(nil)
	var (
		n    int
		errs []error
	)
	over := func() bool {
		return (maxN > 0 && len(cands)-n > maxN) || (maxB > 0 && totalB > maxB)
	}
	gone := make(map[*StreamHandle]bool)
	evict := func(c residencyCandidate) {
		switch err := c.hs.Hibernate(); {
		case err == nil:
			n++
			totalB -= c.bytes
			gone[c.hs] = true
		case errors.Is(err, ErrStreamBusy) || errors.Is(err, ErrStreamClosed):
			// Busy or closing streams stay resident; try the next-coldest.
		default:
			errs = append(errs, fmt.Errorf("hibernating %q: %w", c.hs.name, err))
		}
	}
	for _, c := range cands {
		if !over() {
			break
		}
		if c.hs.refBit.Load() || c.hs.prefetched.Load() {
			c.hs.secondChanceSaves.Add(1)
			obsResSecondChanceSaves.Inc()
			continue
		}
		evict(c)
	}
	if over() {
		// The hand swept full circle without finding enough unprotected
		// victims: demote every survivor's bit (it must be re-earned by
		// another touch) and evict coldest-first, sparing only streams a
		// prefetch is mid-flight on.
		for _, c := range cands {
			if !gone[c.hs] {
				c.hs.refBit.Store(false)
			}
		}
		for _, c := range cands {
			if !over() {
				break
			}
			if gone[c.hs] || c.hs.prefetched.Load() {
				continue
			}
			evict(c)
		}
	}
	return n, errors.Join(errs...)
}

// evictionWarranted reports whether a policy eviction still serves its
// purpose, re-checked at eviction-commit time against the live resident
// set rather than the snapshot the eviction was decided on. Every such
// eviction was queued by makeRoom on behalf of one pending admission, so
// the tier must have headroom for that +1 stream: the eviction is
// warranted while the resident count is at or above the cap (the
// admission would push it over) or the byte budget is already exceeded.
func (h *Hub) evictionWarranted() bool {
	if h == nil || !h.residencyBudgeted() {
		return false
	}
	maxN, maxB := h.p.opts.MaxResidentStreams, h.p.opts.MaxResidentBytes
	h.mu.RLock()
	n, total := 0, int64(0)
	for _, s := range h.streams {
		if s.stp.Load() != nil {
			n++
			total += s.residentBytes.Load()
		}
	}
	h.mu.RUnlock()
	return (maxN > 0 && n >= maxN) || (maxB > 0 && total > maxB)
}

// makeRoom nudges the hub back under its residency budget before hs
// activates, by enqueueing fire-and-forget hibernate ops on the coldest
// other resident streams. It runs on hs's commit path, so it must never
// block on another stream's queue — two streams admitting concurrently
// could each be waiting behind the other's backlog (deadlock). Eviction
// is therefore best-effort TryLock + non-blocking send: a victim too busy
// to take the op is skipped, the budget transiently overshoots, and the
// background sweep settles it. Protected victims — second-chance bit or
// pending prefetch — are likewise skipped (counted as saves) rather than
// demoted: admission alone never strips a hot stream's protection, so a
// burst of one-shot admissions churns through its own probationary streams
// and leaves the bit-carrying regulars alone. Only the full-circle sweep
// (EnforceResidency) demotes bits.
//
// A positive ceiling bounds the eviction to victims strictly colder than
// it — the prefetch guarantee that an admission never evicts a stream
// warmer than the one it admits.
func (h *Hub) makeRoom(hs *StreamHandle, ceiling int64) {
	if !h.residencyBudgeted() {
		return
	}
	maxN, maxB := h.p.opts.MaxResidentStreams, h.p.opts.MaxResidentBytes
	cands, totalB := h.residentByCold(hs)
	// The stream about to activate counts against the budget too.
	need := 0
	if maxN > 0 && len(cands)+1 > maxN {
		need = len(cands) + 1 - maxN
	}
	if need == 0 && !(maxB > 0 && totalB > maxB) {
		return
	}
	queued := false
	for _, c := range cands {
		if need <= 0 && !(maxB > 0 && totalB > maxB) {
			break
		}
		if ceiling > 0 && c.touch >= ceiling {
			break // sorted coldest-first: only warmer victims remain
		}
		if c.hs.refBit.Load() || c.hs.prefetched.Load() {
			c.hs.secondChanceSaves.Add(1)
			obsResSecondChanceSaves.Inc()
			continue
		}
		if c.hs.tryHibernateAsync(c.touch) {
			queued = true
			need--
			totalB -= c.bytes
		}
	}
	// Give the victims' writer goroutines a chance to drain the evictions
	// before this activation loads more state: on a single-core host the
	// activating writer and its caller otherwise monopolize the scheduler,
	// queued evictions go stale behind fresh touches, and the hot tier
	// balloons past the budget until the next blocking sweep.
	if queued {
		runtime.Gosched()
	}
}

// prefetchAdmissible re-validates a prefetch decision at commit time: the
// prefetch op may have sat behind a writer backlog, and activating now
// must still not displace anything warmer than the stream it admits.
// Admissible when the budget has room, or when at least one resident
// victim is strictly colder than the prefetched stream's own last touch
// and unprotected. Inadmissible prefetches quietly no-op — the demand
// operation they anticipated will activate on its own terms.
func (h *Hub) prefetchAdmissible(hs *StreamHandle) bool {
	if !h.residencyBudgeted() {
		return true
	}
	maxN, maxB := h.p.opts.MaxResidentStreams, h.p.opts.MaxResidentBytes
	cands, totalB := h.residentByCold(hs)
	if !(maxN > 0 && len(cands)+1 > maxN) && !(maxB > 0 && totalB > maxB) {
		return true
	}
	ceiling := hs.lastTouch.Load()
	for _, c := range cands {
		if c.touch >= ceiling {
			return false // sorted coldest-first: only warmer victims remain
		}
		if c.hs.refBit.Load() || c.hs.prefetched.Load() {
			continue
		}
		return true
	}
	return false
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
	h.stopHibernator()
	h.stopPrefetcher()
	h.stopMaterializer()
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
	// materializeQueueCap bounds the background materializer's handoff
	// queue; a full queue drops the handoff (the first write builds the
	// buffer instead).
	materializeQueueCap = 64
	// materializeDebounce is how long the hub must go without any stream
	// activation before the background materializer runs a queued build:
	// long enough that churned-out streams are hibernated again (and
	// skipped) and that builds never contend with an activation storm,
	// short enough that a stream which settles in has its back buffer
	// ready before a typical first write.
	materializeDebounce = 100 * time.Millisecond
)

// minTouchGapNs is the smallest inter-touch gap fed into the recurrence
// EWMA: sub-millisecond gaps are one logical burst (a query fan-out, a
// batch of adds), not a recurrence period worth predicting.
const minTouchGapNs = int64(time.Millisecond)

// prefetchHintTTL is how long a standing-signal hint (StreamHandle.
// Prefetch) keeps a hibernated stream prefetch-eligible.
const prefetchHintTTL = 30 * time.Second

// opKind discriminates queued write operations.
type opKind uint8

const (
	opAdd opKind = iota
	opAddBatch
	opFlush
	opCheckpoint
	opSwapModel
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
// committed (so Checkpoint captures a fully drained prefix, and SwapModel
// never swaps an engine mid-batch).
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
	model   *Model            // opSwapModel
	ctx     context.Context   // opSubscribe
	q       Query             // opSubscribe
	every   time.Duration     // opSubscribe
	handler func(Result)      // opSubscribe
	sopts   []SubscribeOption // opSubscribe
	sub     *Subscription     // opUnsubscribe in; opSubscribe out

	// evict marks an opHibernate queued fire-and-forget by the residency
	// policy (makeRoom) rather than requested by a caller. evictTouch is
	// the victim's lastTouch observed when the eviction was decided: the
	// op may sit behind a writer backlog, and by the time it commits the
	// stream may have been touched again or the hub may have settled
	// under budget — a stale eviction is a no-op (see commit).
	evict      bool
	evictTouch int64

	// prefetch marks an opActivate queued fire-and-forget by the
	// predictive prefetcher; its admissibility is re-validated at commit
	// time (see Hub.prefetchAdmissible) and nobody awaits its result.
	prefetch bool

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

	// done is closed by the committing goroutine when the op's results are
	// set; nil for fire-and-forget ops (tryHibernateAsync) nobody awaits.
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
// Flush) into a commit batch: one pass of engine application — crossing at
// most one snapshot publish when no standing queries are registered — and,
// on a durable hub, one WAL append whose fsync (under FsyncAlways) is
// shared by the whole batch. Coalescing is invisible in the results: every
// operation completes with exactly the outcome it would have had committed
// alone — the same accepted prefixes, the same typed sentinels — because
// acceptance decisions are made per operation, in queue order. Checkpoint,
// SwapModel, Subscribe and Unsubscribe are commit barriers: each executes
// alone, after every operation enqueued before it has committed.
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
	// model, opts and cfg are everything needed to rebuild the stream
	// from its durable state; model is swappable (in-memory hubs only),
	// opts/cfg are immutable after registration.
	model atomic.Pointer[Model]
	opts  Options
	cfg   streamConfig

	// qmu serializes enqueues with shutdown: the closed flag and the
	// channel send are checked-and-done under it, so no operation can
	// slip into the queue after the close op that ends the writer loop.
	qmu    sync.Mutex
	ops    chan *writeOp
	closed atomic.Bool   // fail-fast flag; reads must never contend with writers
	done   chan struct{} // closed by Hub.Close; see Done

	// Residency accounting. lastTouch orders eviction (stored by every
	// operation except Hibernate itself — an eviction must not refresh its
	// victim's warmth); evictPending dedupes policy evictions (at most one
	// queued per stream — repeated makeRoom passes over the same coldest
	// candidate must not pile identical ops into its queue); lastStats
	// preserves the final counters of a hibernated stream so Stats never
	// has to reload one.
	lastTouch        atomic.Int64
	evictPending     atomic.Bool
	hibernations     atomic.Int64
	activations      atomic.Int64
	lastActivationNs atomic.Int64
	residentBytes    atomic.Int64
	lastStats        atomic.Pointer[StreamStats]

	// Clock-eviction state. refBit is the second-chance bit:
	// set by every touch while resident, cleared at activation (a fresh
	// admission is probationary until touched again) and by the
	// full-circle demotion pass of EnforceResidency. An eviction pass
	// skips bit-carrying streams, so a one-shot scan over cold streams —
	// each admitted probationary, none touched twice — churns through its
	// own admissions and leaves the established hot set resident.
	refBit atomic.Bool

	// Prefetch state. prefetched is set when the prefetcher queues an
	// activation (doubling as the one-pending-per-stream dedupe) and
	// consumed by the first demand touch while resident (a hit) or by
	// hibernation / a late arrival (a miss); while set it also protects
	// the stream from eviction, so a prefetch is never undone before the
	// touch it anticipated. prefetchHintNs is the expiry of a standing
	// hint (Prefetch); touchGapEWMA tracks the stream's inter-touch
	// recurrence for the predictive sweep.
	prefetched     atomic.Bool
	prefetchHintNs atomic.Int64
	touchGapEWMA   atomic.Int64

	// Residency observability counters (see ResidencyStats).
	prefetchActivations  atomic.Int64
	prefetchHits         atomic.Int64
	prefetchMisses       atomic.Int64
	ghostHits            atomic.Int64
	secondChanceSaves    atomic.Int64
	lazyMaterializations atomic.Int64

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
// residency.
func (hs *StreamHandle) Options() Options { return hs.opts }

// Model returns the model the stream runs against, without touching its
// residency.
func (hs *StreamHandle) Model() *Model { return hs.model.Load() }

// Resident reports whether the stream is currently loaded in memory.
// Operations work either way — the first touching one reactivates a
// hibernated stream.
func (hs *StreamHandle) Resident() bool { return hs.stp.Load() != nil }

// touch refreshes the handle's eviction clock; it is also where the
// residency machinery observes demand. The inter-touch gap feeds the
// recurrence EWMA the prefetcher predicts from (α=¼; sub-millisecond
// gaps are one logical burst and are not folded in), a touch on a
// resident stream earns the second-chance bit, and the first demand
// touch on a prefetched stream consumes the prefetch as a hit.
func (hs *StreamHandle) touch() {
	now := time.Now().UnixNano()
	prev := hs.lastTouch.Swap(now)
	if gap := now - prev; prev > 0 && gap >= minTouchGapNs {
		// Lost updates between racing touches are fine: the EWMA is a
		// prediction signal, not an exact counter.
		if old := hs.touchGapEWMA.Load(); old == 0 {
			hs.touchGapEWMA.Store(gap)
		} else {
			hs.touchGapEWMA.Store(old + (gap-old)/4)
		}
	}
	if hs.stp.Load() != nil {
		hs.refBit.Store(true)
		if hs.prefetched.CompareAndSwap(true, false) {
			hs.prefetchHits.Add(1)
			obsResPrefetchHits.Inc()
		}
	}
}

// prefetchDue reports whether a hibernated stream should be reactivated
// by this sweep: a standing hint is live, or the predicted next touch
// (last touch + recurrence EWMA) falls within ±look of now. A prediction
// already more than look stale means the recurrence broke — no prefetch
// until the pattern re-establishes.
func (hs *StreamHandle) prefetchDue(now, look int64) bool {
	if hint := hs.prefetchHintNs.Load(); hint > 0 {
		if now <= hint {
			return true
		}
		hs.prefetchHintNs.CompareAndSwap(hint, 0) // expired: drop it
	}
	ewma := hs.touchGapEWMA.Load()
	if ewma <= 0 {
		return false
	}
	next := hs.lastTouch.Load() + ewma
	return next-look <= now && now <= next+look
}

// Prefetch records a standing signal that this stream is expected to be
// needed shortly — a reconnecting SubscribeResume cursor, a query
// pattern, an application-level hint — keeping it prefetch-eligible for
// the next ~30s even without EWMA evidence. Advisory and non-blocking;
// it does nothing unless the hub runs a predictive prefetcher
// (PersistOptions.PrefetchSweep) and never counts as a touch.
func (hs *StreamHandle) Prefetch() {
	hs.prefetchHintNs.Store(time.Now().Add(prefetchHintTTL).UnixNano())
}

// tryActivateAsync enqueues a fire-and-forget prefetch activation without
// ever blocking, mirroring tryHibernateAsync: the prefetched flag dedupes
// (one pending prefetch per stream), the enqueue is TryLock + non-blocking
// send, and the committed op re-validates admissibility (the hub may have
// filled up, or a demand op may have activated the stream first).
func (hs *StreamHandle) tryActivateAsync() bool {
	if !hs.prefetched.CompareAndSwap(false, true) {
		return true // one already pending — that is this sweep's progress
	}
	queued := false
	defer func() {
		if !queued {
			hs.prefetched.Store(false)
		}
	}()
	if !hs.qmu.TryLock() {
		return false
	}
	defer hs.qmu.Unlock()
	if hs.closed.Load() || hs.stp.Load() != nil {
		return false
	}
	select {
	case hs.ops <- &writeOp{kind: opActivate, prefetch: true}:
		queued = true
		return true
	default:
		return false // queue full: demand is already heading there
	}
}

// materializeNow runs on the hub's background materializer goroutine:
// build the freshly activated stream's deferred back buffer before the
// first write has to. A stream that hibernated again in the meantime is
// skipped; a write racing the build benignly loses the engine-lock race
// and finds the buffer ready.
func (hs *StreamHandle) materializeNow() {
	st := hs.stp.Load()
	if st == nil {
		return
	}
	did, _, err := st.materializeBack()
	if err != nil {
		hs.hub.log().Warn("background back-buffer materialization failed",
			"stream", hs.name, "error", err)
		return
	}
	if did {
		hs.lazyMaterializations.Add(1)
		obsResLazyMaterialize.Inc()
	}
}

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
			op = <-hs.ops
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
			// degenerates into batches of one (pronounced at
			// GOMAXPROCS=1, where the writer is never preempted between
			// commits). A lone producer never trips the yield: its op is
			// the whole in-flight population, so it commits at once.
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

// commit applies one batch of operations and makes it durable: an apply
// pass in queue order (snapshot publication deferred across the batch, so
// it crosses at most one publish when no standing queries are registered),
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
		// An opActivate is a commit barrier, so a prefetch is always alone
		// in its batch: re-validate its admission before paying the load
		// (see prefetchAdmissible). A stale prefetch quietly no-ops.
		prefetch := len(batch) == 1 && batch[0].prefetch
		if prefetch && !hs.hub.prefetchAdmissible(hs) {
			hs.prefetched.Store(false)
			if batch[0].done != nil {
				close(batch[0].done)
			}
			return
		}
		if needs {
			var err error
			actStart = time.Now()
			if st, actPh, err = hs.activate(prefetch); err != nil {
				err = fmt.Errorf("reactivating %q: %w", hs.name, err)
				for _, op := range batch {
					op.err = err
					if op.prefetch {
						hs.prefetched.Store(false)
					}
					if op.done != nil {
						close(op.done)
					}
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
	// Bracket the apply pass when it can span more than one engine
	// application (several ops, or one multi-post batch). A nil st here
	// means the whole batch is residency-independent ops (hibernate on a
	// cold stream, checkpoint, unsubscribe) — never ingest.
	bracket := st != nil && (len(batch) > 1 || (batch[0].kind == opAddBatch && len(batch[0].posts) > 1))
	if bracket {
		st.beginApply()
	}
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
		case opSwapModel:
			if hs.pers != nil {
				op.err = fmt.Errorf("%w: SwapModel on persisted stream %q (re-open the hub with the new model)", ErrPersist, hs.name)
			} else if op.err = st.SwapModel(op.model); op.err == nil {
				hs.model.Store(op.model)
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
			// A policy eviction re-validates at commit time: it was queued
			// fire-and-forget and may have drained long after the admission
			// decision behind it. If the stream has been touched since, or
			// the hub is no longer over budget (a blocking EnforceResidency
			// pass may have already trimmed the tier), acting on the stale
			// decision would hibernate a warm stream and drag the hot tier
			// below the budget — so the eviction quietly no-ops instead.
			if op.evict {
				hs.evictPending.Store(false)
			}
			if op.evict && (hs.lastTouch.Load() != op.evictTouch || !hs.hub.evictionWarranted()) {
				obsResStaleEvictions.Inc()
			} else if op.err = hs.hibernate(st); op.err == nil {
				if op.evict {
					obsResEvictions.Inc()
				}
				st = nil // barrier: alone in its batch, nothing else uses it
				// Read here, on the writer goroutine: a reactivation is an
				// op behind this one, so these are the stats of the
				// hibernated stream whatever races the caller's return.
				op.stats = hs.Stats()
			}
		case opActivate:
			if op.prefetch && actDur == 0 {
				// The stream was already resident when the prefetch
				// drained: demand beat the prediction there. Count the
				// wasted prefetch and release its protection.
				if hs.prefetched.CompareAndSwap(true, false) {
					hs.prefetchMisses.Add(1)
					obsResPrefetchMisses.Inc()
				}
			}
			op.stOut = st
		}
		if op.tr != nil {
			op.applyDur = time.Since(op.applyStart)
		}
	}
	if bracket {
		st.endApply()
	}

	// A write in this batch may have been the one that paid a deferred
	// back-buffer build (lazy restore, first post-activation ingest);
	// collect its timing for the span and the lazy-materialize counter.
	var matStart time.Time
	var matDur time.Duration
	if st != nil {
		if matStart, matDur = st.takeMaterialize(); matDur > 0 {
			hs.lazyMaterializations.Add(1)
			obsResLazyMaterialize.Inc()
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
		} else if err := hs.pers.maybeCheckpoint(st); err != nil {
			// The trigger runs once per committed batch (never with
			// applied-but-unlogged posts); a failure surfaces on the last
			// op that contributed records.
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
				if ph.matDur > 0 {
					t.ChildOf(act, "backbuffer.materialize", ph.matStart, ph.matDur)
				}
			}
		}
		if !op.applyStart.IsZero() {
			t.ChildOf(cb, "engine.apply", op.applyStart, op.applyDur)
		}
		if matDur > 0 {
			t.ChildOf(cb, "backbuffer.materialize", matStart, matDur)
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
		if op.done != nil {
			close(op.done)
		}
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
	err := hs.pers.releaseWAL()
	// Publish the final counters before the stream pointer goes nil, so a
	// Stats racing the transition never sees a hibernated stream without
	// its last-known numbers.
	s := st.Stats()
	hs.lastStats.Store(&s)
	hs.stp.Store(nil)
	hs.residentBytes.Store(0)
	hs.hibernations.Add(1)
	obsResHibernations.Inc()
	hs.hub.ghostRecord(hs.name)
	if hs.prefetched.CompareAndSwap(true, false) {
		// Prefetched but never demand-touched: the prediction overshot.
		hs.prefetchMisses.Add(1)
		obsResPrefetchMisses.Inc()
	}
	return err
}

// activate executes the cold→hot transition on the commit path: evict
// colder streams first when a budget is configured (best-effort, see
// Hub.makeRoom), then load checkpoint + WAL tail back into memory — the
// front buffer only, by default; the deferred back buffer is handed to
// the hub's background materializer so neither the activation nor the
// first write pays for it. A prefetch activation bounds its evictions to
// victims colder than this stream's own last touch, and the returned
// phase breakdown feeds the stream.activate child spans.
func (hs *StreamHandle) activate(prefetch bool) (*Stream, *activationPhases, error) {
	if hs.pers == nil {
		return nil, nil, fmt.Errorf("%w: stream %q has no durable state to reactivate", ErrPersistDisabled, hs.name)
	}
	start := time.Now()
	ceiling := int64(0)
	if prefetch {
		ceiling = hs.lastTouch.Load()
	}
	hs.hub.makeRoom(hs, ceiling)
	ph := &activationPhases{}
	st, err := hs.pers.resume(hs.model.Load(), hs.opts, hs.cfg, ph)
	if err != nil {
		return nil, nil, err
	}
	// A non-empty WAL tail replays through the ingest path, whose first
	// write materializes the back buffer — that build belongs to this
	// activation's breakdown, not to a later commit batch.
	if ph.matStart, ph.matDur = st.takeMaterialize(); ph.matDur > 0 {
		hs.lazyMaterializations.Add(1)
		obsResLazyMaterialize.Inc()
	}
	// Admission state, settled before the stream publishes so a racing
	// touch can only add protection, never lose it: a ghost hit (evicted
	// recently, wanted again) re-admits protected, everything else starts
	// probationary.
	if hs.hub.ghostTake(hs.name) {
		hs.ghostHits.Add(1)
		obsResGhostHits.Inc()
		hs.refBit.Store(true)
	} else {
		hs.refBit.Store(false)
	}
	elapsed := time.Since(start)
	hs.hub.lastActivateNs.Store(time.Now().UnixNano())
	hs.stp.Store(st)
	hs.residentBytes.Store(st.approxResidentBytes())
	hs.activations.Add(1)
	hs.lastActivationNs.Store(elapsed.Nanoseconds())
	obsResActivations.Inc()
	obsResActivationDuration.ObserveDuration(elapsed)
	if prefetch {
		hs.prefetchActivations.Add(1)
		obsResPrefetchActivations.Inc()
	}
	hs.hub.queueMaterialize(hs)
	return st, ph, nil
}

// tryHibernateAsync enqueues a fire-and-forget hibernate op without ever
// blocking: TryLock on the enqueue path, non-blocking channel send. False
// means the stream was too busy to take the op right now — admission
// control treats that as "not cold after all" and moves on. touch is the
// lastTouch value the eviction decision was based on; the committed op
// no-ops if the stream has been touched since (or the hub has meanwhile
// settled under budget), so a straggling eviction behind a writer backlog
// can never hibernate a re-warmed stream.
func (hs *StreamHandle) tryHibernateAsync(touch int64) bool {
	// One pending eviction per stream: the coldest candidate tends to stay
	// coldest until its eviction drains, so back-to-back admissions would
	// otherwise pile identical ops into its queue. A pending eviction
	// already frees this slot; report it as progress without re-queueing.
	if !hs.evictPending.CompareAndSwap(false, true) {
		return true
	}
	queued := false
	defer func() {
		if !queued {
			hs.evictPending.Store(false)
		}
	}()
	if !hs.qmu.TryLock() {
		return false
	}
	defer hs.qmu.Unlock()
	if hs.closed.Load() || hs.stp.Load() == nil {
		return false
	}
	select {
	case hs.ops <- &writeOp{kind: opHibernate, evict: true, evictTouch: touch}:
		queued = true
		return true
	default:
		return false // queue full: the stream is anything but cold
	}
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

// SwapModel replaces the topic model. It is a commit barrier: it runs
// alone, after every operation enqueued before it. It is rejected on a
// durable stream: persisted state is fingerprinted against one model, and
// recovery would re-open the swapped stream with the original — restart
// the hub (OpenHub) with the new model instead.
func (hs *StreamHandle) SwapModel(m *Model) error {
	return hs.do(&writeOp{kind: opSwapModel, model: m}).err
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
		Resident:             st != nil,
		Hibernations:         hs.hibernations.Load(),
		Activations:          hs.activations.Load(),
		LastActivation:       time.Duration(hs.lastActivationNs.Load()),
		ResidentBytes:        hs.residentBytes.Load(),
		PrefetchActivations:  hs.prefetchActivations.Load(),
		PrefetchHits:         hs.prefetchHits.Load(),
		PrefetchMisses:       hs.prefetchMisses.Load(),
		GhostHits:            hs.ghostHits.Load(),
		SecondChanceSaves:    hs.secondChanceSaves.Load(),
		LazyMaterializations: hs.lazyMaterializations.Load(),
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
	// PrefetchActivations counts activations initiated by the predictive
	// prefetcher; PrefetchHits of those were demand-touched while still
	// resident (the caller skipped the activation latency entirely),
	// PrefetchMisses were hibernated again untouched or arrived after
	// demand already had the stream hot.
	PrefetchActivations int64
	PrefetchHits        int64
	PrefetchMisses      int64
	// GhostHits counts reactivations that found the stream's name on the
	// ghost list of recent evictions — each one a stream the policy let
	// go just before it was wanted again (eviction regret).
	GhostHits int64
	// SecondChanceSaves counts eviction passes that skipped this stream
	// because its second-chance bit (or an in-flight prefetch) protected
	// it — the clock policy's scan resistance at work.
	SecondChanceSaves int64
	// LazyMaterializations counts deferred back-buffer builds paid off
	// the activation critical path (background task, first write, or WAL
	// tail replay).
	LazyMaterializations int64
}

// Done returns a channel closed when the stream is closed out of the Hub
// — the signal long-lived consumers (e.g. SSE connections) select on to
// shut down instead of waiting on a stream that will never ingest again.
func (hs *StreamHandle) Done() <-chan struct{} { return hs.done }
