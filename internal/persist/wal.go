package persist

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// walFile is the part of *os.File a WAL uses.
type walFile interface {
	Write(b []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// WAL is one stream's write-ahead log: an append-only file of framed
// records (record.go). Its owner serializes every call but Syncs (see the
// package comment).
//
// A failed write or fsync fails the log: a short write leaves a partial
// frame at the file's end, behind which a later acknowledged record would
// be cut away as a torn tail at the next open, and a failed fsync may
// have dropped writes it was meant to make durable. From then on every
// append fails with the first error until Reset — run after a checkpoint
// has captured everything the log held — succeeds.
type WAL struct {
	f        walFile
	path     string
	size     int64
	policy   SyncPolicy
	interval time.Duration
	lastSync time.Time
	dirty    bool // bytes appended since the last fsync
	buf      []byte
	lastSeq  uint64 // highest Seq ever appended or replayed
	failed   error  // the write or fsync error that failed the log
	// syncs counts fsyncs issued over the WAL's lifetime. Atomic: Syncs
	// backs the lock-free stats path, which reads it without the owner's
	// serialization, even while an append's fsync is in flight.
	syncs atomic.Int64
}

// OpenWAL opens (creating if absent) the log at path and replays its valid
// record prefix through replay, in order. A torn or corrupt tail — the
// normal shape of a crash mid-append — is truncated away so new records
// append cleanly after the last valid one; it is not an error. replay may
// be nil. interval is only consulted under SyncInterval (0 means 1s): an
// append syncs inline once interval has passed since the last sync, and an
// owner that calls Sync within interval of its last append gets an idle
// stream's tail to stable storage even when no further append ever comes
// (Sync returns at once on a clean log).
func OpenWAL(path string, policy SyncPolicy, interval time.Duration, replay func(Record) error) (*WAL, error) {
	if interval <= 0 {
		interval = time.Second
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	w := &WAL{f: f, path: path, policy: policy, interval: interval, lastSync: time.Now()}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: reading WAL: %w", err)
	}
	replayStart := time.Now()
	valid, err := scan(data, func(r Record) error {
		w.lastSeq = r.Seq
		if replay != nil {
			return replay(r)
		}
		return nil
	})
	obsWALReplay.AddDuration(time.Since(replayStart))
	if err != nil {
		f.Close()
		return nil, err
	}
	if valid < int64(len(data)) {
		// Drop the torn tail so the next append starts at a frame
		// boundary instead of burying a record inside garbage.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: seeking WAL: %w", err)
	}
	w.size = valid
	return w, nil
}

// Append writes one record and applies the sync policy: a one-record
// group commit. The record must carry a Seq greater than every
// previously appended one.
func (w *WAL) Append(r Record) error {
	return w.AppendBatch([]Record{r})
}

// AppendBatch writes a group-commit batch: every record framed
// individually (so a torn tail truncates to the longest committed record
// prefix, exactly as for single appends), encoded into one buffer, written
// with one write call, and — under SyncAlways — made durable with one
// fsync shared by the whole batch. Records must carry strictly increasing
// Seq values, each greater than every previously appended one. An empty
// batch is a no-op.
//
// On error nothing is guaranteed durable: none, some, or all of the
// batch's frames may be on disk, but recovery still replays exactly the
// longest valid record prefix.
func (w *WAL) AppendBatch(recs []Record) error {
	return w.AppendBatchTimed(recs, nil)
}

// BatchTimings reports where one AppendBatchTimed call spent its time —
// the encode+write phase and the (possibly skipped) fsync — so the stream
// commit path can attribute WAL-append and fsync spans to the ops whose
// records rode the batch.
type BatchTimings struct {
	// AppendStart/AppendDur cover encoding and writing the frames,
	// excluding the sync.
	AppendStart time.Time
	AppendDur   time.Duration
	// FsyncStart/FsyncDur cover the fsync; FsyncDur is 0 when the sync
	// policy skipped it (interval not yet elapsed, or SyncNever).
	FsyncStart time.Time
	FsyncDur   time.Duration
}

// AppendBatchTimed is AppendBatch, additionally filling t (when non-nil)
// with the batch's append/fsync timing breakdown.
func (w *WAL) AppendBatchTimed(recs []Record, t *BatchTimings) error {
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	if w.f == nil {
		return fmt.Errorf("persist: append to closed WAL")
	}
	if w.failed != nil {
		return fmt.Errorf("persist: WAL failed earlier, a checkpoint must reset it: %w", w.failed)
	}
	buf := w.buf[:0]
	last := w.lastSeq
	for i := range recs {
		if recs[i].Seq <= last {
			return fmt.Errorf("persist: WAL sequence moved backwards (%d after %d)", recs[i].Seq, last)
		}
		last = recs[i].Seq
		var err error
		buf, err = recs[i].encode(buf)
		if err != nil {
			return err
		}
	}
	w.buf = buf[:0] // recycle the scratch buffer
	if err := writeFull(w.f, buf); err != nil {
		w.failed = fmt.Errorf("persist: appending WAL batch: %w", err)
		obsWALFailures.With("append").Inc()
		return w.failed
	}
	w.size += int64(len(buf))
	w.lastSeq = last
	w.dirty = true
	syncStart := time.Now()
	if t != nil {
		t.AppendStart = start
		t.AppendDur = syncStart.Sub(start)
		t.FsyncStart = syncStart
	}
	preSyncs := w.syncs.Load()
	var err error
	switch w.policy {
	case SyncAlways:
		err = w.Sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.interval {
			err = w.Sync()
		}
	}
	if t != nil && w.syncs.Load() > preSyncs {
		t.FsyncDur = time.Since(syncStart)
	}
	if err == nil {
		obsWALAppends.Inc()
		obsWALAppendedBytes.Add(uint64(len(buf)))
		obsWALAppendDuration.ObserveSince(start)
	}
	return err
}

// Sync flushes appended records to stable storage (a no-op when nothing
// is dirty or the log is closed). A failure fails the log; a failed log is
// not synced again — a later fsync that succeeds would not prove the
// writes the failed one dropped durable — until Reset.
func (w *WAL) Sync() error {
	if !w.dirty || w.f == nil || w.failed != nil {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.failed = fmt.Errorf("persist: syncing WAL: %w", err)
		obsWALFailures.With("fsync").Inc()
		return w.failed
	}
	w.syncs.Add(1)
	obsWALFsyncs.Inc()
	obsWALFsyncDuration.ObserveSince(start)
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// Syncs returns how many fsyncs the WAL has issued over its lifetime
// (inline policy syncs, the owner's idle syncs, Reset and Close all
// count). The pipeline's fsyncs-per-op metric is built on it. The one
// method safe to call concurrently with the owner's calls, even while an
// append's fsync is in flight.
func (w *WAL) Syncs() int64 { return w.syncs.Load() }

// Reset empties the log — called after a checkpoint has captured every
// record's effect — and clears a failure unless making the empty log
// durable fails again.
// Sequence numbers keep counting up across resets, so a record can never
// be confused with a pre-checkpoint one.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("persist: truncating WAL: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("persist: rewinding WAL: %w", err)
	}
	w.size = 0
	w.dirty, w.failed = true, nil
	return w.Sync()
}

// SwapFileForTest makes w write through f and returns the file it wrote
// through until now. It is the seam for tests of the layers above that
// need a log whose writes or fsyncs fail; nothing else calls it.
func (w *WAL) SwapFileForTest(f walFile) walFile {
	old := w.f
	w.f = f
	return old
}

// Size returns the log's current byte length.
func (w *WAL) Size() int64 { return w.size }

// LastSeq returns the highest record sequence appended or replayed.
func (w *WAL) LastSeq() uint64 { return w.lastSeq }

// Close syncs and closes the log file. Safe to call twice.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	serr := w.Sync()
	cerr := w.f.Close()
	w.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
