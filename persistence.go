package ksir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// FsyncPolicy selects when a stream's write-ahead log is flushed to stable
// storage (see PersistOptions.Fsync).
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs at most once per FsyncInterval
	// duration — inline on appends past the deadline, and on an idle
	// stream by its writer goroutine while it waits for work — so data
	// loss after a power failure is bounded by the interval at a small
	// fraction of FsyncAlways' cost.
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
	// automatic checkpoints (default 64; Stream.Checkpoint forces
	// one at any time). Smaller values shorten recovery, larger values
	// shrink the steady-state write amplification.
	CheckpointEvery int64
	// MaxResidentStreams and MaxResidentBytes bound the hub's hot tier
	// (see DESIGN.md §11): each residency sweep hibernates the coldest
	// streams by last touch — checkpointed and released from memory,
	// transparently reactivated by their next operation — until both
	// budgets hold. Only the sweep evicts: between two sweeps activations
	// may take the tier over its budget, and a one-shot scan over cold
	// streams displaces warmer ones like any other touch (DESIGN.md §15).
	// MaxResidentStreams caps how many streams are resident at once;
	// MaxResidentBytes caps their summed approximate resident bytes. Zero
	// disables the respective bound; with both zero no background
	// sweep runs and streams only hibernate on explicit
	// Stream.Hibernate calls. With a budget configured, OpenHub
	// recovers existing streams cold (registered hibernated, loaded on
	// first touch) so opening a massive-tenancy data dir stays within the
	// budget.
	MaxResidentStreams int
	MaxResidentBytes   int64
	// ResidencySweep is how often the background sweeper re-applies the
	// residency budget (default 1s; only consulted when a budget is set).
	// It bounds how long the tier can stay over budget.
	ResidencySweep time.Duration
	// Logger receives the hub's background warnings (residency sweep
	// failures, failed idle WAL syncs). Nil means slog.Default() resolved
	// at log time.
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

// logger is where the hub's background warnings go, resolved at each
// call so a logger installed with slog.SetDefault after OpenHub is still
// honored.
func (hp *hubPersist) logger() *slog.Logger {
	if hp.opts.Logger != nil {
		return hp.opts.Logger
	}
	return slog.Default()
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
// afterwards (Create) is persisted there. Recovery is exact: a
// recovered stream answers queries with the same top-k elements and the
// same bucket sequence as the stream at the moment of its last durable
// write, and replaying a WAL twice is a no-op (records at or below the
// checkpoint's operation watermark are skipped).
//
// m must be the model the persisted streams were built against (recovery
// fails with ErrModelVersion otherwise); each stream's parameters
// (window, bucket, λ, η) come from its own manifest. A torn WAL tail (a
// crash mid-append) is truncated silently; a checkpoint torn anywhere in
// its write — element-log append, head replace — falls back to the
// previous head plus the not-yet-truncated WAL (DESIGN.md §8).
func OpenHub(dir string, m *Model, po PersistOptions) (*Hub, error) {
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
	h.p = &hubPersist{dir: dir, opts: po.withDefaults(), modelHash: m.persistHash()}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, persistErr(err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if err := h.recoverStream(filepath.Join(dir, ent.Name()), m); err != nil {
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

// recoverStream registers one stream directory's stream from its manifest
// and loads it the way a reactivation does (streamPersist.resume:
// checkpoint → WAL tail). With a residency budget configured the load is
// deferred instead: a massive data dir must not be loaded wholesale just
// to open the hub, so only the manifests are read and each stream
// registers hibernated with its checkpoint and WAL untouched on disk until
// its first touching operation resumes it. Corruption in the deferred
// state surfaces there, as that operation's error, instead of at OpenHub.
func (h *Hub) recoverStream(sdir string, m *Model) error {
	meta, err := persist.ReadMeta(sdir)
	if errors.Is(err, fs.ErrNotExist) && unborn(sdir) {
		// A crash inside Create, between its Mkdir and the manifest's
		// rename: no write ever reached the stream.
		return persistErr(os.RemoveAll(sdir))
	}
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
	opts, err := optionsFromMeta(meta)
	if err != nil {
		return err
	}
	pers := newColdStreamPersist(h.p, meta.Name, sdir)
	var es *engineStream
	if !h.budget().Enabled() {
		if es, err = pers.resume(m, opts, &activationPhases{}); err != nil {
			return err
		}
	}
	if _, err := h.register(meta.Name, es, m, opts, pers); err != nil {
		_ = pers.release() // the registration error is the one to report
		return err
	}
	return nil
}

// unborn reports whether a stream directory without a manifest holds
// nothing but, at most, WriteMeta's temp file.
func unborn(sdir string) bool {
	ents, err := os.ReadDir(sdir)
	return err == nil && (len(ents) == 0 || len(ents) == 1 && ents[0].Name() == persist.MetaFile+".tmp")
}

// optionsFromMeta resolves a persisted stream's options from its manifest.
func optionsFromMeta(meta persist.Meta) (Options, error) {
	opts := Options{
		Window: time.Duration(meta.WindowNs),
		Bucket: time.Duration(meta.BucketNs),
		Lambda: &meta.Lambda,
		Eta:    meta.Eta,
	}
	if err := opts.fill(); err != nil {
		return Options{}, err
	}
	return opts, nil
}

// buildStream builds a stream's resident state from resolved options: from a checkpoint
// when one exists (engine state restored directly, pending posts
// re-ingested through Add — per-document-seeded inference makes that
// byte-identical), from scratch otherwise. It is the load half of both
// recovery and reactivation.
func buildStream(m *Model, opts Options, ck *persist.Checkpoint) (*engineStream, error) {
	if ck == nil {
		eng, err := core.NewEngine(engineConfig(m, opts))
		if err != nil {
			return nil, err
		}
		return newEngineStream(m, eng, opts), nil
	}
	eng, err := core.Restore(engineConfig(m, opts), ck.Core)
	if err != nil {
		return nil, persistErr(err)
	}
	s := newEngineStream(m, eng, opts)
	for _, p := range ck.Pending {
		if err := s.add(Post{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}); err != nil {
			return nil, persistErr(fmt.Errorf("%w: re-ingesting pending post %d: %v", persist.ErrCorrupt, p.ID, err))
		}
	}
	s.lastTime = stream.Time(ck.LastTime)
	return s, nil
}

// replayInto returns the WAL replay callback that folds records past the
// opSeq watermark back into st through the normal ingest path (replaying
// a WAL twice is a no-op: records at or below the watermark are skipped).
func replayInto(st *engineStream, opSeq uint64) func(persist.Record) error {
	return func(r persist.Record) error {
		if r.Seq <= opSeq {
			return nil // already folded into the checkpoint
		}
		opSeq = r.Seq
		switch r.Kind {
		case persist.KindPost:
			return st.add(Post{ID: r.Post.ID, Time: r.Post.Time, Text: r.Post.Text, Refs: r.Post.Refs})
		case persist.KindFlush:
			return st.flush(r.FlushNow)
		}
		return fmt.Errorf("%w: WAL record kind %d", persist.ErrVersion, r.Kind)
	}
}

// streamPersist is one stream's durability state, owned by its
// Stream and mutated only on the stream's commit path (the writer
// goroutine). The counters are atomics because the lock-free Stats path
// reads them.
type streamPersist struct {
	hp   *hubPersist
	name string
	dir  string
	// opSeq is the last operation sequence number given to a WAL record
	// (or recovered from the checkpoint and WAL).
	opSeq atomic.Uint64
	// walp is the live WAL — nil while the stream is hibernated (or
	// cold-recovered and never yet touched). An atomic pointer because the
	// lock-free Stats path reads it while the commit path swaps it across
	// residency transitions; all mutation stays on the commit path.
	walp atomic.Pointer[persist.WAL]
	// log is the stream's element log open for reading — the archive reads
	// its checkpointed elements back through it — from the load or the
	// first checkpoint that finds one until the stream leaves memory; nil
	// before. Only the commit path touches it.
	log *persist.ElementLog
	// syncsBase accumulates the fsync counts of WALs released across
	// hibernations, so PipelineStats.Fsyncs stays cumulative over the
	// stream's lifetime.
	syncsBase atomic.Int64
	// ckptBucket is the bucket sequence covered by the latest checkpoint
	// (-1 before the first one or while unknown); the auto-checkpoint
	// trigger compares the live bucket sequence against it.
	ckptBucket  atomic.Int64
	checkpoints atomic.Int64
	// walBytes is the live WAL's size as of the last append or checkpoint.
	walBytes atomic.Int64
	// ckptCurrent records that the on-disk checkpoint covers every durable
	// operation — no ingest has committed since it was written. Hibernation
	// and the closing checkpoint short-circuit on it instead of rewriting
	// identical state (and Close on a hibernated stream must not reload the
	// stream just to do so). Cleared by the commit path before any ingest
	// op applies, set by checkpoint.
	ckptCurrent bool
}

// newColdStreamPersist is a stream's durability state with no WAL open
// and no checkpoint read: a cold-recovered stream's, whose files stay
// untouched until its first reactivation loads them through resume, and a
// new stream's until initStream opens its WAL. The checkpoint bucket reads
// as unknown (-1) until a checkpoint is loaded or taken.
func newColdStreamPersist(hp *hubPersist, name, dir string) *streamPersist {
	p := &streamPersist{hp: hp, name: name, dir: dir}
	p.ckptBucket.Store(-1)
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
}

// resume loads the stream back into memory — the one loader behind both
// reactivation and OpenHub's eager recovery: checkpoint load, WAL open with
// tail replay, counter refresh. It runs on the commit path or before the
// stream exists; the caller owns the residency transition. ph (non-nil)
// receives the phase timing breakdown. On success the stream's element
// log stays open for its archive until release.
func (p *streamPersist) resume(m *Model, opts Options, ph *activationPhases) (*engineStream, error) {
	ph.ckptStart = time.Now()
	ck, err := persist.LoadCheckpoint(p.dir)
	if err != nil {
		return nil, persistErr(err)
	}
	ph.ckptDur = time.Since(ph.ckptStart)
	if ck != nil {
		p.log = ck.Log
	}
	st, err := p.load(m, opts, ck, ph)
	if err != nil && p.log != nil {
		_ = p.log.Close() // the load error is the one to report
		p.log = nil
	}
	return st, err
}

// load is resume past the checkpoint read.
func (p *streamPersist) load(m *Model, opts Options, ck *persist.Checkpoint, ph *activationPhases) (*engineStream, error) {
	if ck != nil && ck.Name != p.name {
		return nil, persistErr(fmt.Errorf("%w: checkpoint names stream %q, manifest %q", persist.ErrCorrupt, ck.Name, p.name))
	}
	ph.restoreStart = time.Now()
	st, err := buildStream(m, opts, ck)
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
	p.opSeq.Store(opSeq)
	p.ckptBucket.Store(-1)
	if ck != nil {
		p.ckptBucket.Store(ck.Core.Stats.Buckets)
	}
	// A clean hibernation leaves a current checkpoint and an empty WAL; a
	// WAL tail (crash between the last appends and the next hibernation)
	// means the checkpoint is stale until retaken.
	p.ckptCurrent = ck != nil && wal.Size() == 0
	p.walp.Store(wal)
	p.walBytes.Store(wal.Size())
	return st, nil
}

// release closes and detaches the live WAL and the element log — the
// durability half of hibernation and close, after the caller made the
// checkpoint current; the in-memory stream must go with them. The closed
// WAL's fsync count folds into syncsBase so Fsyncs stays cumulative.
func (p *streamPersist) release() error {
	var err error
	if p.log != nil {
		err = p.log.Close()
		p.log = nil
	}
	wal := p.walp.Swap(nil)
	if wal == nil {
		return persistErr(err)
	}
	err = errors.Join(wal.Close(), err)
	p.syncsBase.Add(wal.Syncs())
	return persistErr(err)
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

// initStream provisions the on-disk home of a newly created stream, whose
// resolved options are opts: directory, manifest and empty WAL. Called
// under the hub lock, before the stream becomes reachable. The
// directory must not already exist: a leftover directory for this name
// means an earlier incarnation's durable state would be silently mixed
// with the new stream's, so it surfaces as ErrStreamExists.
func (hp *hubPersist) initStream(name string, opts Options) (*streamPersist, error) {
	sdir := filepath.Join(hp.dir, url.PathEscape(name))
	if err := os.Mkdir(sdir, 0o755); err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("%w: %q has persisted state on disk (close kept it; use a fresh name or data dir)", ErrStreamExists, name)
		}
		return nil, persistErr(err)
	}
	if err := persist.WriteMeta(sdir, persist.Meta{
		Name:      name,
		ModelHash: hp.modelHash,
		WindowNs:  int64(opts.Window),
		BucketNs:  int64(opts.Bucket),
		Lambda:    *opts.Lambda,
		Eta:       opts.Eta,
	}); err != nil {
		return nil, persistErr(err)
	}
	wal, err := persist.OpenWAL(filepath.Join(sdir, persist.WALFile),
		hp.opts.Fsync.syncPolicy(), hp.opts.FsyncInterval, nil)
	if err != nil {
		return nil, persistErr(err)
	}
	p := newColdStreamPersist(hp, name, sdir)
	p.walp.Store(wal)
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
	seq := p.opSeq.Load()
	for i := range recs {
		seq++
		recs[i].Seq = seq
	}
	p.opSeq.Store(seq) // consumed even if the append fails: never reused
	if err := wal.AppendBatchTimed(recs, bt); err != nil {
		return persistErr(err)
	}
	p.walBytes.Store(wal.Size())
	return nil
}

// maybeCheckpoint fires the automatic checkpoint once CheckpointEvery
// buckets have been ingested past the last one.
func (p *streamPersist) maybeCheckpoint(st *engineStream) error {
	base := p.ckptBucket.Load()
	if base < 0 {
		base = 0
	}
	if st.engine.Stats().Buckets-base < p.hp.opts.CheckpointEvery {
		return nil
	}
	return p.checkpoint(st)
}

// checkpoint exports the stream's state — O(active): the engine hands out
// its archive by reference — has persist append the elements the disk
// does not hold yet and atomically replace the checkpoint head, truncates
// the WAL, and hands the engine the frames just written, so its archive
// drops their in-memory records and reads them back from the log instead.
// Called on the stream's commit path, where checkpoints are commit
// barriers (no other op is mid-apply, so the published engine snapshot IS
// the latest state).
func (p *streamPersist) checkpoint(st *engineStream) error {
	ck := &persist.Checkpoint{
		Name:      p.name,
		ModelHash: p.hp.modelHash,
		OpSeq:     p.opSeq.Load(),
		LastTime:  int64(st.lastTime),
		Core:      st.engine.ExportState(),
	}
	for _, e := range st.pending {
		ck.Pending = append(ck.Pending, persist.PostRec{
			ID:   int64(e.ID),
			Time: int64(e.TS),
			Text: e.Text,
			Refs: refsToInt64(e.Refs),
		})
	}
	app, err := persist.WriteCheckpointFrames(p.dir, ck)
	if err != nil {
		return persistErr(err)
	}
	if err := p.adopt(st, app); err != nil {
		// The checkpoint is durable all the same; the archive keeps its
		// records, correct but in RAM, until the stream is next loaded.
		p.hp.logger().Warn("element log not adopted; the archive keeps its records in memory", "stream", p.name, "error", err)
	}
	if err := p.walp.Load().Reset(); err != nil {
		return persistErr(err)
	}
	p.ckptBucket.Store(ck.Core.Stats.Buckets)
	p.checkpoints.Add(1)
	p.ckptCurrent = true
	p.walBytes.Store(0)
	return nil
}

// adopt hands st's engine the frames a checkpoint wrote, opening the
// element log for reading the first time there is one.
func (p *streamPersist) adopt(st *engineStream, app persist.Appended) error {
	if len(app.Ends) == 0 {
		return nil
	}
	if p.log == nil {
		log, err := persist.OpenElementLog(p.dir)
		if err != nil {
			return err
		}
		p.log = log
	}
	return st.engine.AdoptLog(p.log, app.First, app.Ends)
}

// finalize takes the closing checkpoint and releases the WAL. Runs as
// the stream's close op — after the queue drained, before the writer
// goroutine exits. A hibernated stream (st nil, WAL already released)
// is already durably current: closing it is a no-op, never a reload.
func (p *streamPersist) finalize(st *engineStream) error {
	if p.walp.Load() == nil {
		return nil
	}
	var ckErr error
	if !p.ckptCurrent {
		ckErr = p.checkpoint(st)
	}
	if err := p.release(); err != nil && ckErr == nil {
		ckErr = err
	}
	return ckErr
}

// stats snapshots the durability counters (lock-free; see Stream.Stats).
func (p *streamPersist) stats() PersistStats {
	return PersistStats{
		Enabled:          true,
		WALSeq:           p.opSeq.Load(),
		WALBytes:         p.walBytes.Load(),
		CheckpointBucket: p.ckptBucket.Load(),
		Checkpoints:      p.checkpoints.Load(),
	}
}
