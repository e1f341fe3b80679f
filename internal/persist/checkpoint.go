package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/stream"
)

// Meta is the small per-stream manifest written once at stream creation,
// so a stream whose first checkpoint never happened is still recoverable
// (name, configuration) from its WAL alone.
type Meta struct {
	Name string
	// ModelHash fingerprints the topic model the stream's persisted state
	// was built against. Recovery refuses to marry this state to a
	// different model: documents, topics and word IDs would silently
	// disagree.
	ModelHash uint64
	// Resolved stream configuration (durations in nanoseconds, as
	// time.Duration's underlying representation).
	WindowNs int64
	BucketNs int64
	Lambda   float64
	Eta      float64
}

// Checkpoint is the full serialized state of one stream at a bucket
// boundary: everything OpenHub needs to reconstruct the stream without
// replaying history, plus the op-sequence watermark that tells WAL replay
// which records are already folded in.
type Checkpoint struct {
	Name      string
	ModelHash uint64
	// OpSeq is the last WAL sequence whose effect the checkpoint
	// captures; replay skips records with Seq <= OpSeq.
	OpSeq uint64
	// LastTime is the stream's last accepted post/flush time (the
	// ordering watermark for future Adds).
	LastTime int64
	// Core is the engine state: the archive and the window queue — on
	// disk, in that order, the element log — and the window facts,
	// per-topic ranked-list tuples (serialized, not recomputed — list
	// scores may legitimately lag the live scorer, and recovery must
	// reproduce them exactly), and maintenance counters. On disk the log
	// lives in its own append-only file (ElementsFile); everything else is
	// the head.
	Core core.State
	// Pending are the buffered posts of the current, incomplete bucket in
	// arrival order. They are stored raw and re-ingested through the
	// normal Add path on recovery (per-document-seeded inference makes
	// that byte-identical).
	Pending []PostRec
	// Log is the element log LoadCheckpoint opened for the archive to read
	// its elements back through (nil when the head names no log). Whoever
	// keeps the loaded state closes it; WriteCheckpoint ignores it.
	Log *ElementLog
}

// File names inside one stream's directory.
const (
	MetaFile = "meta"
	// CheckpointFile is the checkpoint head: every part of a Checkpoint
	// except the elements, plus how much of ElementsFile it covers.
	CheckpointFile = "checkpoint"
	checkpointTmp  = "checkpoint.tmp"
	// CheckpointBak is the previous head, kept until the next one lands so
	// a crash mid-replace always leaves a loadable snapshot.
	CheckpointBak = "checkpoint.bak"
	// ElementsFile is the append-only element log the heads point into.
	ElementsFile = "elements"
	WALFile      = "wal"
)

// checkpointVersion is the head version this package writes and reads: 2,
// the flat head + element log of codec.go. Version 1 was one gob file
// holding the elements too; the last build that wrote it also inferred with
// an older topic sampler, so no directory this build may open holds one and
// a v1 head is ErrVersion like any other.
const checkpointVersion = 2

var (
	metaMagic = [8]byte{'K', 'S', 'I', 'R', 'M', 'E', 'T', 'A'}
	ckptMagic = [8]byte{'K', 'S', 'I', 'R', 'C', 'K', 'P', 'T'}
)

// sealFile wraps a payload in the integrity envelope shared by meta and
// checkpoint head files:
//
//	| magic 8B | version u32 | CRC32C(payload) u32 | payload |
func sealFile(magic [8]byte, version uint32, payload []byte) []byte {
	out := make([]byte, 0, 16+len(payload))
	out = append(out, magic[:]...)
	out = appendU32(out, version)
	out = appendU32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// openFile verifies the envelope and returns the version and payload. A
// bad magic, a short file or a checksum mismatch is ErrCorrupt; judging
// the version is the caller's.
func openFile(magic [8]byte, data []byte) (uint32, []byte, error) {
	if len(data) < 16 || !bytes.Equal(data[:8], magic[:]) {
		return 0, nil, fmt.Errorf("%w: bad %s header", ErrCorrupt, magic[:])
	}
	payload := data[16:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[12:]) {
		return 0, nil, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, magic[:])
	}
	return binary.LittleEndian.Uint32(data[8:]), payload, nil
}

// writeFileAtomic writes data to dir/name via a temp file + fsync + rename
// + directory fsync, the full sequence needed for the rename to be durable
// rather than merely atomic.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeFileSync creates (or truncates) path, writes data and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeFull(f, data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir makes dir's entries durable. A filesystem that does not support
// fsync on a directory says so with EINVAL or ENOTSUP; a rename is still
// atomic there, so that is not an error. Any other failure is: the entry
// a rename or a create just made may not survive a power cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("persist: syncing directory %s: %w", dir, err)
	}
	return nil
}

// WriteMeta persists the stream manifest (atomically; called once at
// stream creation).
func WriteMeta(dir string, m Meta) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&m); err != nil {
		return fmt.Errorf("persist: encoding meta: %w", err)
	}
	return writeFileAtomic(dir, MetaFile, sealFile(metaMagic, FormatVersion, payload.Bytes()))
}

// ReadMeta loads the stream manifest.
func ReadMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return Meta{}, err
	}
	ver, payload, err := openFile(metaMagic, data)
	if err != nil {
		return Meta{}, err
	}
	if ver != FormatVersion {
		return Meta{}, fmt.Errorf("%w: meta file version %d (want %d)", ErrVersion, ver, FormatVersion)
	}
	var m Meta
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return Meta{}, fmt.Errorf("%w: decoding meta: %v", ErrCorrupt, err)
	}
	return m, nil
}

// openHead verifies a head file's envelope and version and returns its
// payload: ErrCorrupt for a torn file, ErrVersion for any version but
// checkpointVersion.
func openHead(data []byte) ([]byte, error) {
	ver, payload, err := openFile(ckptMagic, data)
	if err != nil {
		return nil, err
	}
	if ver != checkpointVersion {
		return nil, fmt.Errorf("%w: checkpoint version %d (want %d)", ErrVersion, ver, checkpointVersion)
	}
	return payload, nil
}

// currentHead returns the payload of the head a reader of dir must use —
// the current file when its envelope is intact, else the .bak (whose WAL
// suffix is still on disk, see WriteCheckpoint) — and whether it is the
// current file. A nil payload with a nil error means the stream has never
// been checkpointed. Loader and writer both choose through here, so the log
// prefix a writer extends is always the one a loader would read. Only a
// missing or torn current file falls back: another version is ErrVersion
// even when a .bak exists, so operators see incompatibility rather than a
// silent restore of older state.
func currentHead(dir string) (payload []byte, isCurrent bool, err error) {
	open := func(name string) ([]byte, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		return openHead(data)
	}
	payload, err = open(CheckpointFile)
	switch {
	case err == nil:
		return payload, true, nil
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, ErrCorrupt):
		bpayload, berr := open(CheckpointBak)
		if berr == nil {
			return bpayload, false, nil
		}
		if errors.Is(berr, fs.ErrNotExist) {
			if errors.Is(err, ErrCorrupt) {
				return nil, false, err // corrupt current, nothing to fall back to
			}
			return nil, false, nil // never checkpointed
		}
		return nil, false, berr
	default:
		return nil, false, err
	}
}

// WriteCheckpoint makes ck the stream's checkpoint. The elements of
// ck.Core.Window — its archive, then its window queue, in arrival order —
// that the head already in dir does not cover are appended to the element
// log — each element is written once in its life,
// so a checkpoint costs the live state plus the new arrivals, not the
// history — and then the head is atomically replaced, the previous one
// rotating to .bak. The order is what makes every crash window safe:
//
//  1. the log is cut back to the durable prefix (dropping what a crashed
//     checkpoint left behind), the new frames are appended and fsynced —
//     no head names those bytes yet, so a crash here changes nothing;
//  2. the new head is written to a temp file and fsynced;
//  3. the current head rotates to .bak and the temp file is renamed into
//     place, then the directory is fsynced — a crash between the renames
//     leaves the .bak, whose shorter prefix of the longer log is intact.
//
// After it returns, the caller may Reset the WAL: every crash window leaves
// either the new head, or the previous one plus the still-untruncated WAL.
// ck must extend the state the head in dir describes (same stream, a log
// that only grew); with no head in dir everything is written. Archived
// elements the log must hold again are read back through their archive's
// log and checked: after a fall back to the .bak's shorter prefix (or to
// none), those the archive already reads from dir's own log stay where
// they are (adoptedPrefix); into another directory they are rewritten byte
// for byte.
func WriteCheckpoint(dir string, ck *Checkpoint) error {
	_, err := WriteCheckpointFrames(dir, ck)
	return err
}

// Appended names the frames a checkpoint appended to the element log: the
// frames of arrivals First, First+1, …, ending at Ends.
type Appended struct {
	First int
	Ends  []int64
}

// WriteCheckpointFrames is WriteCheckpoint returning the frames it
// appended, which the stream's archive adopts (stream.ActiveWindow.AdoptLog).
func WriteCheckpointFrames(dir string, ck *Checkpoint) (Appended, error) {
	start := time.Now()
	base, rotate, err := durablePrefix(dir, ck)
	if err != nil {
		return Appended{}, err
	}
	if base, err = adoptedPrefix(dir, base, &ck.Core.Window.Archive); err != nil {
		return Appended{}, err
	}
	lp, ends, err := appendElements(dir, base, &ck.Core.Window)
	if err != nil {
		return Appended{}, err
	}
	head := sealFile(ckptMagic, checkpointVersion, appendHead(nil, ck, lp, uint64(len(ck.Core.Window.Window))))
	tmp := filepath.Join(dir, checkpointTmp)
	if err := writeFileSync(tmp, head); err != nil {
		return Appended{}, err
	}
	cur := filepath.Join(dir, CheckpointFile)
	if rotate {
		if err := os.Rename(cur, filepath.Join(dir, CheckpointBak)); err != nil {
			return Appended{}, err
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return Appended{}, err
	}
	if err := syncDir(dir); err != nil {
		return Appended{}, err
	}
	obsCkpts.Inc()
	obsCkptBytes.Add(uint64(len(head)) + uint64(lp.bytes-base.bytes))
	obsCkptDuration.ObserveSince(start)
	return Appended{First: int(base.count), Ends: ends}, nil
}

// durablePrefix finds the part of dir's element log that ck's log extends:
// the prefix named by the head a loader would use. rotate says whether the
// current head file is that head and so must survive as .bak (a torn
// current file is overwritten in place instead — rotating it would destroy
// the .bak that still loads).
func durablePrefix(dir string, ck *Checkpoint) (base logPrefix, rotate bool, err error) {
	payload, isCurrent, err := currentHead(dir)
	switch {
	case errors.Is(err, ErrCorrupt):
		return logPrefix{}, false, nil // nothing in dir loads: start over
	case err != nil:
		return logPrefix{}, false, err
	case payload == nil:
		return logPrefix{}, false, nil // first checkpoint
	}
	prev, base, _, err := decodeHeadPrefix(payload)
	if err != nil {
		return logPrefix{}, false, err
	}
	if n := logLen(&ck.Core.Window); prev.Name != ck.Name || prev.ModelHash != ck.ModelHash || base.count > n {
		return logPrefix{}, false, fmt.Errorf("persist: checkpoint of %q (%d elements) does not extend the one in %s (%q, %d elements)",
			ck.Name, n, dir, prev.Name, base.count)
	}
	return base, isCurrent, nil
}

// adoptedPrefix extends base over the frames arch has adopted from dir's
// own element log — past base only after a fall back to the .bak's shorter
// prefix, or to none. Those frames are the only copy of the archived
// elements among them, so the append must not cut them off and write them
// again: a failed write would lose them. They are already in place, so
// they are read back to check them (a stretch at a time, never the whole
// history at once) and kept as they are.
func adoptedPrefix(dir string, base logPrefix, arch *stream.Archive) (logPrefix, error) {
	adopted := uint64(len(arch.Frames))
	log, ok := arch.Log.(*ElementLog)
	if adopted <= base.count || !ok || !log.inDir(dir) {
		return base, nil
	}
	if base.count > 0 && arch.Frames[base.count-1] != base.bytes {
		return logPrefix{}, fmt.Errorf("persist: the element log's head prefix ends at %d, the archive's frame %d at %d", base.bytes, base.count-1, arch.Frames[base.count-1])
	}
	start, ends := base.bytes, arch.Frames[base.count:]
	for len(ends) > 0 {
		n := 1
		for n < len(ends) && ends[n]-start <= checkStretch {
			n++
		}
		if _, err := log.readFrames(start, ends[:n]); err != nil {
			return logPrefix{}, err
		}
		start, ends = ends[n-1], ends[n:]
	}
	return logPrefix{count: adopted, bytes: start}, nil
}

// checkStretch bounds the bytes adoptedPrefix reads back at once.
const checkStretch = 1 << 20

// logLen is the number of elements win's log holds.
func logLen(win *stream.WindowState) uint64 {
	return uint64(win.Archive.Len() + len(win.Window))
}

// encodeFrames encodes the frames of win's log from element first on and
// returns them with where each ends in the returned bytes: the archived
// elements — the durable ones read back through the archive's log, the
// rest framed from their records — then the window queue.
func encodeFrames(win *stream.WindowState, first int) ([]byte, []int64, error) {
	arch := &win.Archive
	durable := min(arch.Len(), len(arch.Frames))
	var buf []byte
	ends := make([]int64, 0, logLen(win)-uint64(first))
	if first < durable {
		log, ok := arch.Log.(*ElementLog)
		if !ok {
			return nil, nil, fmt.Errorf("persist: archived elements %d to %d are in an element log this package cannot read", first, durable)
		}
		start := int64(0)
		if first > 0 {
			start = arch.Frames[first-1]
		}
		var err error
		if buf, err = log.readFrames(start, arch.Frames[first:durable]); err != nil {
			return nil, nil, err
		}
		for _, end := range arch.Frames[first:durable] {
			ends = append(ends, end-start)
		}
	}
	// Past the durable prefix the archive's records are in memory, and
	// Record cannot fail.
	size := len(buf)
	for i := max(first, durable); i < arch.Len(); i++ {
		rec, text, _ := arch.Record(i)
		size += 8 + len(rec) + len(text)
	}
	queue := win.Window[max(first-arch.Len(), 0):]
	for _, e := range queue {
		size += 8 + stream.RecordSize(e) + len(e.Text)
	}
	buf = slices.Grow(buf, size-len(buf))
	var err error
	for i := max(first, durable); i < arch.Len(); i++ {
		rec, text, _ := arch.Record(i)
		if buf, err = appendArchivedFrame(buf, rec, text); err != nil {
			return nil, nil, err
		}
		ends = append(ends, int64(len(buf)))
	}
	for _, e := range queue {
		if buf, err = appendElementFrame(buf, e); err != nil {
			return nil, nil, err
		}
		ends = append(ends, int64(len(buf)))
	}
	return buf, ends, nil
}

// writeAt is the element log's one write, a variable so tests can fail it.
var writeAt = (*os.File).WriteAt

// appendElements brings dir's element log from the durable prefix base to
// cover all of win's log and returns the new prefix with where each frame
// it appended ends in the log. With nothing to append the file is left
// alone: whatever follows the prefix is invisible to loaders and is cut by
// the next append.
func appendElements(dir string, base logPrefix, win *stream.WindowState) (logPrefix, []int64, error) {
	if logLen(win) == base.count {
		return base, nil, nil
	}
	buf, ends, err := encodeFrames(win, int(base.count))
	if err != nil {
		return logPrefix{}, nil, err
	}
	for i := range ends {
		ends[i] += base.bytes
	}
	f, err := os.OpenFile(filepath.Join(dir, ElementsFile), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return logPrefix{}, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return logPrefix{}, nil, err
	}
	if fi.Size() < base.bytes {
		return logPrefix{}, nil, fmt.Errorf("%w: element log holds %d bytes, the checkpoint head names %d", ErrCorrupt, fi.Size(), base.bytes)
	}
	if err := f.Truncate(base.bytes); err != nil {
		return logPrefix{}, nil, err
	}
	if _, err := writeAt(f, buf, base.bytes); err != nil {
		return logPrefix{}, nil, err
	}
	if err := f.Sync(); err != nil {
		return logPrefix{}, nil, err
	}
	if err := f.Close(); err != nil {
		return logPrefix{}, nil, err
	}
	if fi.Size() == 0 {
		// Possibly just created: make the directory entry durable before
		// a head can name the file.
		if err := syncDir(dir); err != nil {
			return logPrefix{}, nil, err
		}
	}
	return logPrefix{count: logLen(win), bytes: base.bytes + int64(len(buf))}, ends, nil
}

// LoadCheckpoint loads the stream's latest valid checkpoint: the head
// chosen by currentHead plus the element-log prefix it names, ignoring
// whatever a crashed or later checkpoint appended past it. It returns
// (nil, nil) when the stream has never been checkpointed. Every frame of
// the prefix is checked, but only the window queue is decoded: the
// archive comes back as where its frames end, with their IDs
// (stream.WindowState.ArchivedIDs), over the log left open in ck.Log for
// it to read its elements back through. A head whose envelope is intact
// but whose payload or log prefix does not decode is ErrCorrupt with no
// fallback: the log is fsynced before its head is written, so no crash
// produces that shape.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	payload, _, err := currentHead(dir)
	if err != nil || payload == nil {
		return nil, err
	}
	ck, lp, inWindow, err := decodeHead(payload)
	if err != nil {
		return nil, err
	}
	if lp.count == 0 && lp.bytes == 0 {
		return ck, nil
	}
	log, s, err := loadElements(dir, lp, inWindow)
	if err != nil {
		return nil, err
	}
	win := &ck.Core.Window
	win.Archive = stream.Archive{Count: int(lp.count - inWindow), Log: log, Frames: s.ends}
	win.ArchivedIDs, win.ArchivedMaxTS, win.Window = s.ids, s.maxTS, s.window
	ck.Log = log
	return ck, nil
}
