package ksir

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
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

// newEngineForModel builds an empty core engine (shared by New, SwapModel
// and recovery without a checkpoint).
func newEngineForModel(m *Model, opts Options) (*core.Engine, error) {
	return core.NewEngine(engineConfig(m, opts))
}

// This file implements the query paradigms §3.2 lists beyond
// query-by-keyword, plus batch query processing and online model swap.

// QueryByText answers a k-SIR query whose vector is inferred from a whole
// document — the query-by-document paradigm of [39] (e.g., "find posts
// representative of the topics of this article").
func (s *Stream) QueryByText(ctx context.Context, k int, text string, opts ...QueryOption) (Result, error) {
	q := Query{K: k}
	for _, opt := range opts {
		opt(&q)
	}
	m := s.me.Load().model
	ids := m.tokenIDs(text)
	x := m.inf.InferDense(ids).Truncate(8, 0.02)
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

// SwapModel replaces the topic model while keeping the stream's window
// contents: every active element is re-tokenized against the new model's
// vocabulary, re-inferred, and the ranked lists are rebuilt. This is the
// paper's future-work item ("supporting the incremental updates of topic
// models over streams", §6) in its practical retrain-and-swap form: train a
// fresh model on recent history in the background, then swap atomically
// with respect to queries.
//
// SwapModel must be called from the same goroutine as Add/Flush.
func (s *Stream) SwapModel(m *Model) error {
	if m == nil {
		return fmt.Errorf("%w: nil model", ErrBadOptions)
	}
	// Collect the live elements (window order does not matter; Ingest
	// replays them bucket-free at their original timestamps).
	var actives []*stream.Element
	cur := s.me.Load().engine
	cur.ReadSnapshot(func(win *stream.ActiveWindow, _ *score.Scorer) {
		win.ForEachActive(func(e *stream.Element) {
			actives = append(actives, e)
		})
	})
	now := cur.Now()

	eng, err := newEngineForModel(m, s.opts)
	if err != nil {
		return err
	}
	// Re-ingest in timestamp order with re-inferred topic vectors.
	sortLiveByTS(actives)
	var batch []*stream.Element
	for _, e := range actives {
		ids := m.tokenIDs(e.Text)
		batch = append(batch, &stream.Element{
			ID:     e.ID,
			TS:     e.TS,
			Doc:    textproc.NewDocument(ids),
			Topics: m.inf.InferDoc(ids),
			Refs:   e.Refs,
			Text:   e.Text,
		})
	}
	if len(batch) > 0 {
		// Feed one element at a time grouped by timestamp so the window
		// reconstructs the exact reference/expiry state.
		i := 0
		for i < len(batch) {
			j := i
			for j < len(batch) && batch[j].TS == batch[i].TS {
				j++
			}
			if err := eng.Ingest(batch[i].TS, batch[i:j]); err != nil {
				return fmt.Errorf("ksir: rebuilding window after model swap: %w", err)
			}
			i = j
		}
	}
	if now > eng.Now() {
		if err := eng.Ingest(now, nil); err != nil {
			return err
		}
	}
	s.me.Store(&modelEngine{model: m, engine: eng})
	return nil
}

// sortLiveByTS orders elements by (TS, ID) so that re-ingestion preserves
// reference order: IDs grow with time, so a same-timestamp parent always
// precedes its referrer.
func sortLiveByTS(actives []*stream.Element) {
	sort.Slice(actives, func(i, j int) bool {
		if actives[i].TS != actives[j].TS {
			return actives[i].TS < actives[j].TS
		}
		return actives[i].ID < actives[j].ID
	})
}
