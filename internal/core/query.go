package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
	"github.com/social-streams/ksir/internal/trace"
)

// Algorithm selects the k-SIR processing algorithm.
type Algorithm int

const (
	// MTTS is Multi-Topic ThresholdStream (Algorithm 2): evaluates each
	// active element at most once, (1/2 − ε)-approximate.
	MTTS Algorithm = iota
	// MTTD is Multi-Topic ThresholdDescend (Algorithm 3): buffers retrieved
	// elements for re-evaluation, (1 − 1/e − ε)-approximate.
	MTTD
	// TopkRep returns the k elements with the highest individual scores
	// δ(e, x) — the Top-k Representative baseline of §5.3, only
	// 1/k-approximate because word and influence overlaps are ignored.
	TopkRep
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case MTTS:
		return "MTTS"
	case MTTD:
		return "MTTD"
	case TopkRep:
		return "TopkRep"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Query is a k-SIR query q_t(k, x).
type Query struct {
	// K bounds the result size.
	K int
	// X is the query vector over topics, normalized to sum to 1.
	X topicmodel.TopicVec
	// Epsilon is the approximation parameter ε ∈ [0.001,1) of MTTS/MTTD
	// (default 0.1, the paper's default).
	Epsilon float64
	// Algorithm selects the processing algorithm (default MTTS).
	Algorithm Algorithm
}

// minEpsilon bounds the work a query can ask for: MTTS keeps log(2k)/ε
// candidates and MTTD descends through log(τ₀/τ′)/ε thresholds, so an ε of
// 1e-9 in a request body would be billions of either. The paper's range is
// 0.05–0.5.
const minEpsilon = 1e-3

func (q *Query) validate() error {
	if q.K <= 0 {
		return fmt.Errorf("core: query k must be positive, got %d", q.K)
	}
	if q.X.Len() == 0 {
		return fmt.Errorf("core: query vector is empty")
	}
	for i, p := range q.X.Probs {
		if !(p >= 0) || math.IsInf(p, 1) { // NaN fails every comparison
			return fmt.Errorf("core: query weight of topic %d must be finite and non-negative, got %v", q.X.Topics[i], p)
		}
	}
	if q.Epsilon == 0 {
		q.Epsilon = 0.1
	}
	if !(q.Epsilon >= minEpsilon && q.Epsilon < 1) {
		return fmt.Errorf("core: epsilon must be in [%v,1), got %v", minEpsilon, q.Epsilon)
	}
	return nil
}

// Result is the answer to a k-SIR query plus the processing counters used
// by the efficiency experiments.
type Result struct {
	// Elements is the result set S, in the order the algorithm added them.
	Elements []*stream.Element
	// Score is f(S, x).
	Score float64
	// Evaluated counts distinct elements whose exact score was computed at
	// least once — the numerator of Figure 10's ratio.
	Evaluated int
	// GainEvals counts marginal-gain computations Δ(e|S): MTTS's per-sieve
	// evaluations, MTTD's lazy re-evaluations; 0 for TopkRep.
	GainEvals int
	// Certified counts MTTS sieve runs that rejected an element by
	// certificate — a visited subset's gain already below their threshold —
	// without computing Δ(e|S); 0 for MTTD and TopkRep.
	Certified int
	// Retrieved counts tuples pulled from the ranked lists.
	Retrieved int
	// ActiveAtQuery is n_t when the query ran (Figure 10's denominator).
	ActiveAtQuery int
	// BucketSeq is the sequence number of the published bucket the query
	// observed (0 before any ingest). Every value in the result — scores,
	// members, counters — is consistent with exactly this bucket boundary,
	// even when the query raced a concurrent Ingest.
	BucketSeq int64
}

// IDs returns the result element IDs in selection order.
func (r Result) IDs() []stream.ElemID {
	ids := make([]stream.ElemID, len(r.Elements))
	for i, e := range r.Elements {
		ids[i] = e.ID
	}
	return ids
}

// Query processes a k-SIR query against the last published bucket. It is
// safe to call concurrently from any number of goroutines and concurrently
// with Ingest: the query pins the engine snapshot current at its start and
// traverses that immutable state lock-free, so an in-flight Ingest neither
// blocks it nor leaks partially applied updates into its result.
func (g *Engine) Query(q Query) (Result, error) {
	return g.QueryContext(context.Background(), q)
}

// QueryContext is Query with cancellation: the algorithms poll ctx between
// ranked-list descents (MTTD's threshold rounds, and every checkEvery
// retrievals in the MTTS/TopkRep streaming loops), so an abandoned query
// releases its snapshot pin promptly instead of draining the lists. On
// cancellation it returns ctx.Err() and an empty result.
func (g *Engine) QueryContext(ctx context.Context, q Query) (Result, error) {
	if err := q.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if q.Algorithm < MTTS || q.Algorithm > TopkRep {
		return Result{}, fmt.Errorf("core: unknown algorithm %d", int(q.Algorithm))
	}
	start := time.Now()
	snap := g.acquire()
	defer snap.release()
	v := snap.view()
	descStart := time.Now()
	// The arena is taken after the pin and released (deferred, so first)
	// before the unpin: see arena.
	a := getArena()
	defer putArena(a)
	var res Result
	var err error
	switch q.Algorithm {
	case MTTD:
		res, err = v.mttd(ctx, q, a)
	case TopkRep:
		res, err = v.topkRep(ctx, q, a)
	default:
		res, err = v.mtts(ctx, q, a)
	}
	obsQueryByAlg[q.Algorithm].observe(start, &res, err)
	if op := trace.FromContext(ctx); op != nil {
		pin := op.Child("snapshot.pin", start, time.Since(start),
			trace.Int("bucket", res.BucketSeq))
		op.ChildOf(pin, "query.descend", descStart, time.Since(descStart),
			trace.String("algorithm", q.Algorithm.String()),
			trace.Int("evaluated", int64(res.Evaluated)),
			trace.Int("retrieved", int64(res.Retrieved)),
			trace.Int("gain_evals", int64(res.GainEvals)),
			trace.Int("certified", int64(res.Certified)))
	}
	return res, err
}

// checkEvery is how many ranked-list retrievals the streaming loops process
// between context polls: cheap enough to bound cancellation latency, coarse
// enough to keep ctx.Err out of the per-element hot path.
const checkEvery = 256
