package persist

import (
	"github.com/social-streams/ksir/internal/metrics"
)

// Durability-layer observability (DESIGN.md §12): WAL append/fsync cost
// and failures, checkpoint cost, element-log reads, and recovery replay
// time, aggregated over every stream in the process.
var (
	obsWALAppends = metrics.NewCounter("ksir_wal_appends_total",
		"WAL append calls (each a group-commit batch of one or more records).")
	obsWALAppendDuration = metrics.NewDurationHistogram("ksir_wal_append_duration_seconds",
		"WAL append latency: encode, write, and any policy-inline fsync.",
		metrics.DefBuckets...)
	obsWALAppendedBytes = metrics.NewCounter("ksir_wal_appended_bytes_total",
		"Bytes appended to WALs.")
	obsWALFsyncs = metrics.NewCounter("ksir_wal_fsyncs_total",
		"WAL fsyncs issued (inline, interval flusher, reset and close).")
	obsWALFsyncDuration = metrics.NewDurationHistogram("ksir_wal_fsync_duration_seconds",
		"WAL fsync latency.",
		metrics.DefBuckets...)
	obsWALFailures = metrics.NewCounterVec("ksir_wal_failures_total",
		"WAL writes (op=append) and fsyncs (op=fsync) that failed, each failing its WAL until a checkpoint resets it.",
		"op", "append", "fsync")
	obsWALReplay = metrics.NewDurationCounter("ksir_wal_replay_seconds_total",
		"Wall time spent scanning and replaying WAL tails at open (recovery and reactivation).")

	obsCkpts = metrics.NewCounter("ksir_checkpoints_total",
		"Checkpoint snapshots written.")
	obsCkptDuration = metrics.NewDurationHistogram("ksir_checkpoint_duration_seconds",
		"Checkpoint write latency: encode, write, fsync, atomic replace.",
		metrics.DefBuckets...)
	obsCkptBytes = metrics.NewCounter("ksir_checkpoint_bytes_total",
		"Bytes written to checkpoint snapshots.")

	obsLogReads = metrics.NewCounterVec("ksir_element_log_reads_total",
		"Reads of archived elements back from element logs — a resurrection, or a checkpoint re-framing them — by whether the read and its CRC checks succeeded.",
		"result", "ok", "error")
)
