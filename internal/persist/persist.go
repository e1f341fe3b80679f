// Package persist is the durability substrate of the k-SIR service: a
// per-stream write-ahead log plus periodic checkpoint snapshots, the
// classic "cheap snapshot + replayable delta log" pattern (DESIGN.md §8).
//
// The division of labor with the layers above:
//
//   - This package owns the on-disk formats and their failure modes:
//     length-prefixed CRC-checked WAL records (record.go), the fsync
//     policy (wal.go), and checkpoints as an append-only element log plus
//     an atomically-replaced versioned head with a .bak fallback
//     (checkpoint.go for the protocol, codec.go for the flat encoding). It
//     decodes state but never interprets it.
//   - internal/stream and internal/core own what the state *means*: they
//     export and restore window contents and ranked-list tuples.
//   - The root ksir package glues the two together: ksir.OpenHub recovers
//     every stream directory, and the Hub's streams append WAL
//     records on the serialized writer path.
//
// Crash-consistency contract: a WAL record is the unit of atomicity. A
// torn or corrupt tail (a crash mid-append) is not an error — recovery
// applies every valid prefix record and truncates the rest. A checkpoint
// appends its new elements to the log and fsyncs them before its head —
// which names how much of the log it covers — is written to a temp name,
// fsynced and renamed into place, with the previous head kept as .bak; a
// crash at any point leaves at least one loadable head over an intact log
// prefix, and its op-sequence number tells replay exactly which WAL
// records are already folded in.
//
// Ownership: a WAL belongs to one owner that serializes every call on it —
// in the service, its stream, under the stream's lock. The package starts
// no goroutine and takes no lock; under SyncInterval the owner syncs an
// idle tail by calling Sync within the interval of its last append.
// Syncs alone may be read from any goroutine.
package persist

import "errors"

// FormatVersion guards the meta file; readers reject other versions with
// ErrVersion. Checkpoint heads carry their own checkpointVersion, and WAL
// records are unversioned (an unknown record kind is ErrVersion).
const FormatVersion = 1

var (
	// ErrVersion reports an on-disk artifact written by an incompatible
	// format version (or against a different model). The ksir layer maps
	// it onto the public ksir.ErrModelVersion sentinel.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrCorrupt reports an artifact that failed its integrity checks in a
	// way recovery cannot skip: a bad magic number, a checkpoint whose CRC
	// does not match, or decoded state that violates invariants. (A torn
	// WAL tail is NOT corrupt — it is the expected shape of a crash and is
	// silently truncated.)
	ErrCorrupt = errors.New("persist: corrupt file")
)

// SyncPolicy selects when the WAL is fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs at most once per interval: appends
	// past the deadline sync inline, the owner's Sync after its last
	// append covers idle streams (a tail write reaches stable storage
	// within the interval even when no further append ever comes), and
	// Close/checkpoint boundaries always sync. Bounds power-loss exposure to the interval
	// at a small fraction of SyncAlways' cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every record: no acknowledged write is ever
	// lost, at the price of one disk flush per operation.
	SyncAlways
	// SyncNever leaves flushing to the operating system: crash-safe
	// against process death, not against power loss.
	SyncNever
)

// String returns the flag-friendly name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses the flag-friendly names of SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncInterval, errors.New("persist: fsync policy must be always, interval or never")
}
