package core

import (
	"time"

	"github.com/social-streams/ksir/internal/metrics"
)

// Engine observability (DESIGN.md §12). All instruments are process-global
// aggregates over every engine in the process; per-stream breakdowns come
// from scrape-time collectors over StreamStats, not from hot-path labels.
var (
	obsElements = metrics.NewCounter("ksir_engine_elements_ingested_total",
		"Stream elements applied to engines.")
	obsBuckets = metrics.NewCounter("ksir_engine_buckets_total",
		"Bucket boundaries applied (window advances).")
	obsUpdateTime = metrics.NewDurationCounter("ksir_engine_update_seconds_total",
		"Wall time spent in primary bucket application (the Figure-14 maintenance cost).")
	obsDrainWait = metrics.NewDurationCounter("ksir_engine_drain_wait_seconds_total",
		"Wall time the writer spent waiting for the readers of a retired snapshot to drain before a bucket.")
	obsQueryDuration = metrics.NewDurationHistogramVec("ksir_engine_query_duration_seconds",
		"k-SIR query latency (snapshot pin to result) by algorithm.",
		"algorithm", algNames, metrics.DefBuckets...)
	obsSnapshotPins = metrics.NewGauge("ksir_engine_snapshot_pins",
		"Readers currently pinning a published engine snapshot.")

	// The paper's Figure 10 as live distributions, per algorithm: how much
	// of the active set a query scored, how deep it descended the ranked
	// lists before terminating, and how many marginal gains it computed. A
	// slow query with a deep descent is a pruning problem; one with a
	// shallow descent and many gain evaluations is an evaluation problem.
	obsQueryEvalRatio = metrics.NewHistogramVec("ksir_engine_query_evaluated_ratio",
		"Fraction of the active elements a query evaluated (Figure 10) by algorithm.",
		"algorithm", algNames, 1e-4, []uint64{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000})
	obsQueryRetrieved = metrics.NewHistogramVec("ksir_engine_query_retrieved",
		"Ranked-list tuples a query retrieved before terminating, by algorithm.",
		"algorithm", algNames, 1, countBuckets)
	obsQueryGainEvals = metrics.NewHistogramVec("ksir_engine_query_gain_evals",
		"Marginal-gain computations per query (MTTS sieve evaluations, MTTD re-evaluations) by algorithm; MTTS rejections by certificate compute no gain and are not counted.",
		"algorithm", algNames, 1, countBuckets)

	// obsQueryByAlg pre-resolves the vec children so the query path indexes
	// an array instead of hashing a label string per query.
	obsQueryByAlg = [...]queryObs{
		MTTS:    resolveQueryObs(MTTS),
		MTTD:    resolveQueryObs(MTTD),
		TopkRep: resolveQueryObs(TopkRep),
	}
)

var (
	algNames = []string{MTTS.String(), MTTD.String(), TopkRep.String()}
	// countBuckets is the ladder of the per-query count histograms: 16 to
	// 64Ki, ×4 per step.
	countBuckets = []uint64{16, 64, 256, 1024, 4096, 16384, 65536}
)

// queryObs is one algorithm's children of the per-query families.
type queryObs struct {
	duration, evalRatio, retrieved, gainEvals *metrics.Histogram
}

func resolveQueryObs(a Algorithm) queryObs {
	return queryObs{
		duration:  obsQueryDuration.With(a.String()),
		evalRatio: obsQueryEvalRatio.With(a.String()),
		retrieved: obsQueryRetrieved.With(a.String()),
		gainEvals: obsQueryGainEvals.With(a.String()),
	}
}

// observe records one query — its latency always, its Figure-10 counters
// when it was answered; zero allocation, a dozen atomic adds.
func (o *queryObs) observe(start time.Time, res *Result, err error) {
	o.duration.ObserveSince(start)
	if err != nil {
		return
	}
	if res.ActiveAtQuery > 0 {
		o.evalRatio.Observe(uint64(res.Evaluated) * 10000 / uint64(res.ActiveAtQuery))
	}
	o.retrieved.Observe(uint64(res.Retrieved))
	o.gainEvals.Observe(uint64(res.GainEvals))
}
