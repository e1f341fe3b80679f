package ksir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/residency"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// FsyncPolicy selects when a stream's write-ahead log is flushed to stable
// storage (see PersistOptions.Fsync).
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs at most once per FsyncInterval
	// duration — inline on appends past the deadline, via a background
	// flusher on idle streams — so data loss after a power failure is
	// bounded by the interval at a small fraction of FsyncAlways' cost.
	// Process crashes lose nothing under any policy — the OS holds the
	// writes.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every accepted operation: no acknowledged
	// write is ever lost, at the price of one disk flush per operation.
	FsyncAlways
	// FsyncNever leaves flushing entirely to the operating system.
	FsyncNever
)

// ParseFsyncPolicy parses "always", "interval" or "never" (the -fsync flag
// values of ksir-server).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncInterval, fmt.Errorf("%w: fsync policy must be always, interval or never, got %q", ErrBadOptions, s)
}

// syncPolicy maps the public enum onto the persist package's.
func (p FsyncPolicy) syncPolicy() persist.SyncPolicy {
	switch p {
	case FsyncAlways:
		return persist.SyncAlways
	case FsyncNever:
		return persist.SyncNever
	default:
		return persist.SyncInterval
	}
}

// String returns the flag-friendly name of the policy.
func (p FsyncPolicy) String() string { return p.syncPolicy().String() }

// PersistOptions configures the durability subsystem of a Hub opened with
// OpenHub. The zero value is a sensible production default: interval
// fsync (1s), a checkpoint every 64 buckets.
type PersistOptions struct {
	// Fsync is the WAL flush policy.
	Fsync FsyncPolicy
	// FsyncInterval bounds the sync lag under FsyncInterval (default 1s).
	FsyncInterval time.Duration
	// CheckpointEvery is how many ingested buckets may elapse between
	// automatic checkpoints (default 64; StreamHandle.Checkpoint forces
	// one at any time). Smaller values shorten recovery, larger values
	// shrink the steady-state write amplification.
	CheckpointEvery int64
	// MaxResidentStreams and MaxResidentBytes bound the hub's hot tier
	// (see DESIGN.md §11): when either budget is exceeded, the coldest
	// unprotected streams by last touch are hibernated — checkpointed and
	// released from memory, transparently reactivated by their next
	// operation. Victim selection is scan-resistant (DESIGN.md §15): a
	// stream touched again since its admission carries a second-chance bit
	// that saves it from one eviction pass, and recently evicted names sit
	// on a ghost list whose hits re-admit the stream protected.
	// MaxResidentStreams caps how many streams are resident at once;
	// MaxResidentBytes caps their summed approximate resident bytes. Zero
	// disables the respective bound; with both zero no background
	// sweep runs and streams only hibernate on explicit
	// StreamHandle.Hibernate calls. With a budget configured, OpenHub
	// recovers existing streams cold (registered hibernated, loaded on
	// first touch) so opening a massive-tenancy data dir stays within the
	// budget.
	MaxResidentStreams int
	MaxResidentBytes   int64
	// ResidencySweep is how often the background sweeper re-applies the
	// residency budget (default 1s; only consulted when a budget is set).
	// Admission control additionally evicts the coldest streams inline
	// whenever an activation would overshoot the budget.
	ResidencySweep time.Duration
	// PrefetchSweep, when positive, runs the predictive prefetcher every
	// PrefetchSweep: hibernated streams whose predicted next touch (from
	// the per-stream inter-arrival EWMA) or standing hint
	// (StreamHandle.Prefetch) falls within PrefetchLookahead are
	// reactivated in the background, so the demand operation that was
	// about to pay the activation finds the stream already hot. Prefetch
	// is budget-aware: it never evicts a stream warmer than the one it
	// admits, and it skips entirely when no colder victim exists. 0 (the
	// default) disables prefetching.
	PrefetchSweep time.Duration
	// PrefetchLookahead is how far around the predicted next touch a
	// stream counts as "due" (default 2×PrefetchSweep). Larger values
	// prefetch earlier and tolerate sloppier periodicity; too large and
	// prefetched streams idle in the hot tier before their touch arrives.
	PrefetchLookahead time.Duration
	// Logger receives the hub's background warnings (residency sweep
	// failures). Nil means slog.Default() resolved at log time.
	Logger *slog.Logger
}

func (o PersistOptions) withDefaults() PersistOptions {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.ResidencySweep <= 0 {
		o.ResidencySweep = time.Second
	}
	if o.PrefetchSweep > 0 && o.PrefetchLookahead <= 0 {
		o.PrefetchLookahead = 2 * o.PrefetchSweep
	}
	return o
}

// PersistStats reports a stream's durability counters (zero-valued with
// Enabled=false on non-persistent streams).
type PersistStats struct {
	// Enabled says whether the stream is backed by a WAL + checkpoints.
	Enabled bool
	// WALSeq is the last operation sequence number appended to (or
	// recovered from) the WAL; it grows monotonically for the stream's
	// whole lifetime, across checkpoints and restarts.
	WALSeq uint64
	// WALBytes is the size of the live WAL segment (resets to 0 at every
	// checkpoint).
	WALBytes int64
	// CheckpointBucket is the bucket sequence the latest checkpoint
	// covers, or -1 when the stream has never been checkpointed.
	CheckpointBucket int64
	// Checkpoints counts checkpoints taken since the hub was opened.
	Checkpoints int64
}

// hubPersist is the hub-wide durability configuration.
type hubPersist struct {
	dir       string
	opts      PersistOptions
	modelHash uint64
}

// persistHash fingerprints the model and the sampler that infers with it, so
// persisted state is never married to a different model on recovery (word
// IDs and topic indexes would silently disagree) nor replayed by a different
// sampler (WAL records and pending posts hold raw text, so their elements
// would silently come back with different topic vectors).
func (m *Model) persistHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(topicmodel.InferVersion)
	w(uint64(m.tm.Z))
	w(uint64(m.tm.V))
	w(uint64(m.seed))
	w(uint64(m.vocab.Size()))
	for i := 0; i < m.vocab.Size(); i++ {
		word := m.vocab.Word(textproc.WordID(i))
		w(uint64(len(word)))
		h.Write([]byte(word))
	}
	for _, p := range m.tm.Phi {
		w(math.Float64bits(p))
	}
	for _, p := range m.tm.PTopic {
		w(math.Float64bits(p))
	}
	return h.Sum64()
}

// persistErr folds persist-layer failures into the public taxonomy:
// format/model incompatibilities surface as ErrModelVersion, everything
// else as ErrPersist.
func persistErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, persist.ErrVersion) {
		return fmt.Errorf("%w: %v", ErrModelVersion, err)
	}
	return fmt.Errorf("%w: %v", ErrPersist, err)
}

// OpenHub opens a durable Hub over dir: every stream subdirectory found
// there is recovered — the latest valid checkpoint is loaded and the WAL
// tail replayed through the normal ingest path — and every stream created
// afterwards (Create/Adopt) is persisted there. Recovery is exact: a
// recovered stream answers queries with the same top-k elements and the
// same bucket sequence as the stream at the moment of its last durable
// write, and replaying a WAL twice is a no-op (records at or below the
// checkpoint's operation watermark are skipped).
//
// m must be the model the persisted streams were built against (recovery
// fails with ErrModelVersion otherwise); sopts carry the non-persistable
// stream configuration — e.g. WithSubscriptionErrorHandler — applied to
// every recovered stream, while each stream's core parameters (window,
// bucket, λ, η) come from its own manifest. A torn WAL tail (a
// crash mid-append) is truncated silently; a checkpoint torn anywhere in
// its write — element-log append, head replace — falls back to the
// previous head plus the not-yet-truncated WAL (DESIGN.md §8).
func OpenHub(dir string, m *Model, po PersistOptions, sopts ...StreamOption) (*Hub, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadOptions)
	}
	if dir == "" {
		return nil, fmt.Errorf("%w: empty persistence directory", ErrBadOptions)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, persistErr(err)
	}
	h := NewHub()
	h.logger = po.Logger
	h.p = &hubPersist{dir: dir, opts: po.withDefaults(), modelHash: m.persistHash()}
	if b := h.budget(); b.Enabled() {
		h.ghosts = residency.NewGhosts(b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, persistErr(err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if err := h.recoverStream(filepath.Join(dir, ent.Name()), m, sopts); err != nil {
			// Unwind the streams already recovered so their WALs close.
			for _, name := range h.List() {
				_ = h.Close(name)
			}
			return nil, fmt.Errorf("recovering %s: %w", ent.Name(), err)
		}
	}
	h.startSweeper()
	return h, nil
}

// recoverStream registers one stream directory's handle from its manifest
// and loads it the way a reactivation does (streamPersist.resume:
// checkpoint → WAL tail). With a residency budget configured the load is
// deferred instead: a massive data dir must not be loaded wholesale just
// to open the hub, so only the manifests are read and each stream
// registers hibernated with its checkpoint and WAL untouched on disk until
// its first touching operation resumes it. Corruption in the deferred
// state surfaces there, as that operation's error, instead of at OpenHub.
func (h *Hub) recoverStream(sdir string, m *Model, sopts []StreamOption) error {
	meta, err := persist.ReadMeta(sdir)
	if err != nil {
		return persistErr(err)
	}
	if err := validName(meta.Name); err != nil {
		return err
	}
	if meta.ModelHash != h.p.modelHash {
		return fmt.Errorf("%w: stream %q was persisted against a different model or topic-sampler version (this build infers with version %d); its directory is left untouched",
			ErrModelVersion, meta.Name, topicmodel.InferVersion)
	}
	opts, cfg, err := optionsFromMeta(meta, sopts)
	if err != nil {
		return err
	}
	pers := newColdStreamPersist(h.p, meta.Name, sdir)
	var st *Stream
	if !h.budget().Enabled() {
		if st, err = pers.resume(m, opts, cfg, &activationPhases{}); err != nil {
			return err
		}
	}
	if _, err := h.register(meta.Name, st, m, opts, cfg, pers); err != nil {
		_ = pers.releaseWAL() // the registration error is the one to report
		return err
	}
	return nil
}

// optionsFromMeta resolves a persisted stream's options and config:
// caller-supplied options first (subscription error handlers and other
// non-persistable configuration), the manifest's core parameters last so
// they always win.
func optionsFromMeta(meta persist.Meta, sopts []StreamOption) (Options, streamConfig, error) {
	opts := Options{
		Window: time.Duration(meta.WindowNs),
		Bucket: time.Duration(meta.BucketNs),
		Eta:    meta.Eta,
	}
	all := append(append([]StreamOption{}, sopts...), WithLambda(meta.Lambda))
	var cfg streamConfig
	for _, o := range all {
		o(&cfg)
	}
	if err := opts.fill(&cfg); err != nil {
		return Options{}, streamConfig{}, err
	}
	return opts, cfg, nil
}

// buildStream rebuilds a Stream from resolved options: from a checkpoint
// when one exists (engine state restored directly, pending posts
// re-ingested through Add — per-document-seeded inference makes that
// byte-identical), from scratch otherwise. It is the load half of both
// recovery and reactivation.
func buildStream(m *Model, opts Options, cfg streamConfig, ck *persist.Checkpoint) (*Stream, error) {
	var (
		eng *core.Engine
		err error
	)
	if ck == nil {
		eng, err = newEngineForModel(m, opts)
		if err != nil {
			return nil, err
		}
	} else {
		eng, err = core.Restore(engineConfig(m, opts), ck.Core)
		if err != nil {
			return nil, persistErr(err)
		}
	}
	s := &Stream{
		opts:       opts,
		cfg:        cfg,
		bucketLen:  stream.Time(opts.Bucket / time.Second),
		pendingIDs: make(map[stream.ElemID]struct{}),
	}
	s.me.Store(&modelEngine{model: m, engine: eng})
	if ck != nil {
		for _, p := range ck.Pending {
			if err := s.Add(Post{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}); err != nil {
				return nil, persistErr(fmt.Errorf("%w: re-ingesting pending post %d: %v", persist.ErrCorrupt, p.ID, err))
			}
		}
		s.lastTime = stream.Time(ck.LastTime)
	}
	return s, nil
}

// replayInto returns the WAL replay callback that folds records past the
// opSeq watermark back into st through the normal ingest path (replaying
// a WAL twice is a no-op: records at or below the watermark are skipped).
func replayInto(st *Stream, opSeq uint64) func(persist.Record) error {
	return func(r persist.Record) error {
		if r.Seq <= opSeq {
			return nil // already folded into the checkpoint
		}
		opSeq = r.Seq
		switch r.Kind {
		case persist.KindPost:
			return st.Add(Post{ID: r.Post.ID, Time: r.Post.Time, Text: r.Post.Text, Refs: r.Post.Refs})
		case persist.KindFlush:
			return st.Flush(r.FlushNow)
		}
		return fmt.Errorf("%w: WAL record kind %d", persist.ErrVersion, r.Kind)
	}
}

// streamPersist is one stream's durability state, owned by its
// StreamHandle and mutated only on the handle's commit path (the writer
// goroutine). The stat* atomics mirror the counters for the lock-free
// Stats path.
type streamPersist struct {
	hp    *hubPersist
	name  string
	dir   string
	opSeq uint64
	// walp is the live WAL — nil while the stream is hibernated (or
	// cold-recovered and never yet touched). An atomic pointer because the
	// lock-free Stats path reads it while the commit path swaps it across
	// residency transitions; all mutation stays on the commit path.
	walp atomic.Pointer[persist.WAL]
	// syncsBase accumulates the fsync counts of WALs released across
	// hibernations, so PipelineStats.Fsyncs stays cumulative over the
	// handle's lifetime.
	syncsBase atomic.Int64
	// ckptBucket is the bucket sequence covered by the latest checkpoint
	// (-1 before the first one); the auto-checkpoint trigger compares the
	// live bucket sequence against it.
	ckptBucket  int64
	checkpoints int64
	// ckptCurrent records that the on-disk checkpoint covers every durable
	// operation — no ingest has committed since it was written. Hibernation
	// and the closing checkpoint short-circuit on it instead of rewriting
	// identical state (and Close on a hibernated stream must not reload the
	// stream just to do so). Cleared by the commit path before any ingest
	// op applies, set by checkpoint.
	ckptCurrent bool

	statSeq        atomic.Uint64
	statBytes      atomic.Int64
	statCkptBucket atomic.Int64
	statCkpts      atomic.Int64
}

func newStreamPersist(hp *hubPersist, name, dir string, wal *persist.WAL, opSeq uint64, ckptBucket int64) *streamPersist {
	p := &streamPersist{hp: hp, name: name, dir: dir, opSeq: opSeq, ckptBucket: ckptBucket}
	p.walp.Store(wal)
	p.statSeq.Store(opSeq)
	p.statBytes.Store(wal.Size())
	p.statCkptBucket.Store(ckptBucket)
	return p
}

// newColdStreamPersist is the durability state of a cold-recovered stream:
// no WAL is open, no checkpoint has been read — everything on disk is
// authoritative and untouched until the first reactivation loads it
// through resume. Until then the counters report the checkpoint bucket as
// unknown (-1).
func newColdStreamPersist(hp *hubPersist, name, dir string) *streamPersist {
	p := &streamPersist{hp: hp, name: name, dir: dir, ckptBucket: -1}
	p.statCkptBucket.Store(-1)
	return p
}

// activationPhases is the wall-clock breakdown of one reactivation,
// filled by resume and attributed as child spans of stream.activate by
// the commit path (so /debug/traces shows where activation time goes).
type activationPhases struct {
	ckptStart    time.Time // checkpoint.load: read + decode the snapshot
	ckptDur      time.Duration
	restoreStart time.Time // state.restore: rebuild engine + pending posts
	restoreDur   time.Duration
	replayStart  time.Time // wal.replay: open the WAL, fold in the tail
	replayDur    time.Duration
	matStart     time.Time // backbuffer.materialize: lazy build paid here
	matDur       time.Duration
}

// resume loads the stream back into memory — the one loader behind both
// reactivation and OpenHub's eager recovery: checkpoint load, WAL open with
// tail replay, counter refresh. It runs on the commit path or before the
// handle exists; the caller owns the residency transition. ph (non-nil)
// receives the phase timing breakdown.
func (p *streamPersist) resume(m *Model, opts Options, cfg streamConfig, ph *activationPhases) (*Stream, error) {
	ph.ckptStart = time.Now()
	ck, err := persist.LoadCheckpoint(p.dir)
	if err != nil {
		return nil, persistErr(err)
	}
	ph.ckptDur = time.Since(ph.ckptStart)
	if ck != nil && ck.Name != p.name {
		return nil, persistErr(fmt.Errorf("%w: checkpoint names stream %q, manifest %q", persist.ErrCorrupt, ck.Name, p.name))
	}
	ph.restoreStart = time.Now()
	st, err := buildStream(m, opts, cfg, ck)
	if err != nil {
		return nil, err
	}
	ph.restoreDur = time.Since(ph.restoreStart)
	var opSeq uint64
	if ck != nil {
		opSeq = ck.OpSeq
	}
	ph.replayStart = time.Now()
	wal, err := persist.OpenWAL(filepath.Join(p.dir, persist.WALFile),
		p.hp.opts.Fsync.syncPolicy(), p.hp.opts.FsyncInterval, replayInto(st, opSeq))
	if err != nil {
		return nil, persistErr(err)
	}
	ph.replayDur = time.Since(ph.replayStart)
	if wal.LastSeq() > opSeq {
		opSeq = wal.LastSeq()
	}
	p.opSeq = opSeq
	p.ckptBucket = -1
	if ck != nil {
		p.ckptBucket = ck.Core.Stats.Buckets
	}
	// A clean hibernation leaves a current checkpoint and an empty WAL; a
	// WAL tail (crash between the last appends and the next hibernation)
	// means the checkpoint is stale until retaken.
	p.ckptCurrent = ck != nil && wal.Size() == 0
	p.walp.Store(wal)
	p.statSeq.Store(opSeq)
	p.statBytes.Store(wal.Size())
	p.statCkptBucket.Store(p.ckptBucket)
	return st, nil
}

// releaseWAL closes and detaches the live WAL — the durability half of
// hibernation, after the caller made the checkpoint current. The closed
// WAL's fsync count folds into syncsBase so Fsyncs stays cumulative.
func (p *streamPersist) releaseWAL() error {
	wal := p.walp.Swap(nil)
	if wal == nil {
		return nil
	}
	err := wal.Close()
	p.syncsBase.Add(wal.Syncs())
	if err != nil {
		return persistErr(err)
	}
	return nil
}

// fsyncs returns the stream's cumulative WAL fsync count, across
// residency transitions.
func (p *streamPersist) fsyncs() int64 {
	n := p.syncsBase.Load()
	if wal := p.walp.Load(); wal != nil {
		n += wal.Syncs()
	}
	return n
}

// initStream provisions the on-disk home of a newly created (or adopted)
// stream: directory, manifest, empty WAL, and — when the stream already
// carries ingested or pending state (Adopt) — the initial checkpoint.
// Called under the hub lock, before the handle becomes reachable. The
// directory must not already exist: a leftover directory for this name
// means an earlier incarnation's durable state would be silently mixed
// with the new stream's, so it surfaces as ErrStreamExists.
func (hp *hubPersist) initStream(name string, st *Stream) (*streamPersist, error) {
	sdir := filepath.Join(hp.dir, url.PathEscape(name))
	if err := os.Mkdir(sdir, 0o755); err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("%w: %q has persisted state on disk (close kept it; use a fresh name or data dir)", ErrStreamExists, name)
		}
		return nil, persistErr(err)
	}
	opts := st.Options()
	if err := persist.WriteMeta(sdir, persist.Meta{
		Name:      name,
		ModelHash: hp.modelHash,
		WindowNs:  int64(opts.Window),
		BucketNs:  int64(opts.Bucket),
		Lambda:    opts.Lambda,
		Eta:       opts.Eta,
	}); err != nil {
		return nil, persistErr(err)
	}
	wal, err := persist.OpenWAL(filepath.Join(sdir, persist.WALFile),
		hp.opts.Fsync.syncPolicy(), hp.opts.FsyncInterval, nil)
	if err != nil {
		return nil, persistErr(err)
	}
	p := newStreamPersist(hp, name, sdir, wal, 0, -1)
	if st.Stats().Elements > 0 || st.Stats().Now != 0 || len(st.pending) > 0 {
		if err := p.checkpoint(st); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return p, nil
}

// appendBatchTimed stamps consecutive op sequence numbers onto recs,
// appends them as one group commit — every record framed individually, one
// write, one shared fsync under FsyncAlways — and refreshes the lock-free
// stat mirrors, filling bt with the append/fsync timing split so the commit
// path can record WAL spans on traced operations. Called from the stream's
// commit path (the writer goroutine); it does not run the checkpoint
// trigger — the caller does, once the whole committed batch is logged (a
// checkpoint taken with applied-but-unlogged posts would be followed by
// their records past its watermark, which replay would then wrongly
// re-apply). On error the batch's operations are in memory but not
// durable — callers surface the error on each contributing op so
// producers know durability is degraded.
func (p *streamPersist) appendBatchTimed(recs []persist.Record, bt *persist.BatchTimings) error {
	wal := p.walp.Load() // non-nil: the commit path activates before ingest
	for i := range recs {
		p.opSeq++
		recs[i].Seq = p.opSeq
	}
	if err := wal.AppendBatchTimed(recs, bt); err != nil {
		return persistErr(err)
	}
	p.statSeq.Store(p.opSeq)
	p.statBytes.Store(wal.Size())
	return nil
}

// maybeCheckpoint fires the automatic checkpoint once CheckpointEvery
// buckets have been ingested past the last one.
func (p *streamPersist) maybeCheckpoint(st *Stream) error {
	base := p.ckptBucket
	if base < 0 {
		base = 0
	}
	if st.Stats().Bucket-base < p.hp.opts.CheckpointEvery {
		return nil
	}
	return p.checkpoint(st)
}

// checkpoint exports the stream's state — O(active): the engine hands out
// its arrival log by reference — has persist append the elements the disk
// does not hold yet and atomically replace the checkpoint head, and
// truncates the WAL. Called on the handle's commit path, where checkpoints
// are commit barriers (no other op is mid-apply and every deferred publish
// has completed, so the published engine snapshot IS the latest state).
func (p *streamPersist) checkpoint(st *Stream) error {
	ck := &persist.Checkpoint{
		Name:      p.name,
		ModelHash: p.hp.modelHash,
		OpSeq:     p.opSeq,
		LastTime:  int64(st.lastTime),
		Core:      st.me.Load().engine.ExportState(),
	}
	for _, e := range st.pending {
		ck.Pending = append(ck.Pending, persist.PostRec{
			ID:   int64(e.ID),
			Time: int64(e.TS),
			Text: e.Text,
			Refs: refsToInt64(e.Refs),
		})
	}
	if err := persist.WriteCheckpoint(p.dir, ck); err != nil {
		return persistErr(err)
	}
	if err := p.walp.Load().Reset(); err != nil {
		return persistErr(err)
	}
	p.ckptBucket = ck.Core.Stats.Buckets
	p.checkpoints++
	p.ckptCurrent = true
	p.statCkptBucket.Store(p.ckptBucket)
	p.statCkpts.Store(p.checkpoints)
	p.statBytes.Store(0)
	return nil
}

// finalize takes the closing checkpoint and releases the WAL. Runs as
// the handle's close op — after the queue drained, before the writer
// goroutine exits. A hibernated stream (st nil, WAL already released)
// is already durably current: closing it is a no-op, never a reload.
func (p *streamPersist) finalize(st *Stream) error {
	if p.walp.Load() == nil {
		return nil
	}
	var ckErr error
	if !p.ckptCurrent {
		ckErr = p.checkpoint(st)
	}
	if err := p.releaseWAL(); err != nil && ckErr == nil {
		ckErr = err
	}
	return ckErr
}

// stats snapshots the durability counters (lock-free; see StreamHandle.Stats).
func (p *streamPersist) stats() PersistStats {
	return PersistStats{
		Enabled:          true,
		WALSeq:           p.statSeq.Load(),
		WALBytes:         p.statBytes.Load(),
		CheckpointBucket: p.statCkptBucket.Load(),
		Checkpoints:      p.statCkpts.Load(),
	}
}
