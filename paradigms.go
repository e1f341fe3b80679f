package ksir

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// engineConfig is the core engine configuration of a model under the
// stream's resolved options.
func engineConfig(m *Model, opts Options) core.Config {
	return core.Config{
		Model:        m.tm,
		WindowLength: stream.Time(opts.Window / time.Second),
		Params:       score.Params{Lambda: opts.Lambda, Eta: opts.Eta},
	}
}

// This file implements the query paradigms §3.2 lists beyond
// query-by-keyword, plus batch query processing.

// QueryByText answers a k-SIR query whose vector is inferred from a whole
// document — the query-by-document paradigm of [39] (e.g., "find posts
// representative of the topics of this article").
func (s *Stream) QueryByText(ctx context.Context, k int, text string, opts ...QueryOption) (Result, error) {
	q := Query{K: k}
	for _, opt := range opts {
		opt(&q)
	}
	ids := s.model.tokenIDs(text)
	x := s.model.inf.InferDense(ids).Truncate(8, 0.02)
	if x.Len() == 0 {
		return Result{}, fmt.Errorf("%w: no word of the query document is in the model vocabulary", ErrBadQuery)
	}
	q.Vector = make(map[int]float64, x.Len())
	for i := range x.Topics {
		q.Vector[int(x.Topics[i])] = x.Probs[i]
	}
	return s.Query(ctx, q)
}

// QueryPersonalized answers a k-SIR query whose vector is inferred from a
// user's recent posts — the personalized-search paradigm of [19]. History
// entries are weighted equally; pass the most recent N posts of the user.
func (s *Stream) QueryPersonalized(ctx context.Context, k int, history []string, opts ...QueryOption) (Result, error) {
	if len(history) == 0 {
		return Result{}, fmt.Errorf("%w: personalized query needs at least one history post", ErrBadQuery)
	}
	// A pseudo-document concatenating the user's history.
	return s.QueryByText(ctx, k, strings.Join(history, " "), opts...)
}

// QueryOption tweaks paradigm helpers without widening their signatures.
type QueryOption func(*Query)

// WithEpsilon sets the approximation knob ε.
func WithEpsilon(eps float64) QueryOption { return func(q *Query) { q.Epsilon = eps } }

// WithAlgorithm selects MTTS/MTTD/TopK.
func WithAlgorithm(a Algorithm) QueryOption { return func(q *Query) { q.Algorithm = a } }

// QueryMany answers a batch of queries concurrently over the same window
// state, the deployment mode the paper motivates ("thousands of users could
// submit different queries at the same time", §2). Results are returned in
// input order; the first error aborts the batch. Cancelling ctx aborts the
// queries still in flight.
func (s *Stream) QueryMany(ctx context.Context, queries []Query, parallelism int) ([]Result, error) {
	if parallelism <= 0 {
		parallelism = 4
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	results := make([]Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for i := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = s.Query(ctx, queries[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
