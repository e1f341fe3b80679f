package ksir

import (
	"time"

	"github.com/social-streams/ksir/internal/metrics"
)

// Writer-pipeline and residency observability (DESIGN.md §12). Aggregates
// over every stream in the process; the /metrics collector in
// internal/server adds the per-stream {stream=...} breakdowns from
// StreamStats at scrape time.
var (
	obsPipeOps = metrics.NewCounter("ksir_pipeline_ops_total",
		"Write operations committed through stream writer pipelines.")
	obsPipeBatches = metrics.NewCounter("ksir_pipeline_commit_batches_total",
		"Commit batches (each one engine apply pass and at most one WAL append + fsync).")
	obsPipeBatchSize = metrics.NewHistogram("ksir_pipeline_batch_size",
		"Operations coalesced per commit batch.", 1,
		[]uint64{1, 2, 4, 8, 16, 32, 64, 128})
	obsPipeCommitDuration = metrics.NewDurationHistogram("ksir_pipeline_commit_duration_seconds",
		"Commit-batch latency: apply pass plus WAL append and shared fsync.",
		metrics.DefBuckets...)

	obsResHibernations = metrics.NewCounter("ksir_residency_hibernations_total",
		"Hot-to-cold stream transitions (checkpoint, WAL release, memory drop).")
	obsResActivations = metrics.NewCounter("ksir_residency_activations_total",
		"Cold-to-hot stream transitions (checkpoint load + WAL tail replay).")
	obsResActivationDuration = metrics.NewDurationHistogram("ksir_residency_activation_duration_seconds",
		"Reactivation latency of hibernated streams.",
		metrics.DefBuckets...)
	obsResEvictions = metrics.NewCounter("ksir_residency_evictions_total",
		"Policy evictions committed by the residency budget (makeRoom / sweep).")
	obsResStaleEvictions = metrics.NewCounter("ksir_residency_stale_evictions_total",
		"Policy evictions that no-opped at commit-time re-validation (stream re-warmed or budget already met).")

	obsResPrefetchActivations = metrics.NewCounter("ksir_hub_prefetch_activations_total",
		"Stream activations initiated by the predictive prefetcher rather than a demand operation.")
	obsResPrefetchHits = metrics.NewCounter("ksir_hub_prefetch_hits_total",
		"Prefetched streams touched by a demand operation while still resident (the activation latency the caller never saw).")
	obsResPrefetchMisses = metrics.NewCounter("ksir_hub_prefetch_misses_total",
		"Prefetched streams hibernated again (or found already resident) before any demand touch consumed the prefetch.")
	obsResGhostHits = metrics.NewCounter("ksir_hub_ghost_hits_total",
		"Reactivations of streams on the ghost list (recently evicted and wanted again: eviction-policy regret).")
	obsResSecondChanceSaves = metrics.NewCounter("ksir_hub_second_chance_saves_total",
		"Eviction candidates skipped because their second-chance bit (or pending prefetch) protected them.")
	obsResLazyMaterialize = metrics.NewCounter("ksir_hub_lazy_materialize_total",
		"Deferred back-buffer materializations (prefetch activation, first write, or WAL tail replay).")
)

// observeCommit records one commit batch on the pipeline families.
func observeCommit(n int, elapsed time.Duration) {
	obsPipeOps.Add(uint64(n))
	obsPipeBatches.Inc()
	obsPipeBatchSize.Observe(uint64(n))
	obsPipeCommitDuration.ObserveDuration(elapsed)
}
