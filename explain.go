package ksir

import (
	"context"
	"fmt"

	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// Explanation breaks down why one post is in a result set: its marginal
// contribution to the representativeness score at the moment it was
// selected, split into the semantic (word-coverage) and influence
// (reference-coverage) components of the objective.
type Explanation struct {
	Post Post
	// Gain is the post's marginal contribution; the Gains of a result in
	// order sum to the result's Score.
	Gain float64
	// Semantic and Influence are Gain's two components.
	Semantic  float64
	Influence float64
	// NewWords counts distinct words this post covered that no earlier
	// post in the result had covered better.
	NewWords int
	// Topics maps topic index → that topic's share of Gain.
	Topics map[int]float64
}

// Explain recomputes a result's per-post contribution breakdown against
// the snapshot the result was computed at. Call it right after Query, with
// the same query you issued: once a later bucket is published the result
// is stale, and Explain fails with ErrNotActive naming both buckets rather
// than explain it against a window that changed. Like Query it pins the
// published snapshot without waiting for the writer, after reactivating a
// hibernated stream.
func (s *Stream) Explain(res Result, q Query) ([]Explanation, error) {
	es, err := s.resident(context.Background())
	if err != nil {
		return nil, err
	}
	x, err := queryVector(es.model, q)
	if err != nil {
		return nil, err
	}
	var contribs []score.Contribution
	es.engine.ReadSnapshot(func(bucket int64, win *stream.ActiveWindow, scorer *score.Scorer) {
		if bucket != res.Bucket {
			err = fmt.Errorf("%w: the result is of bucket %d, the stream is at bucket %d; explain before ingesting further", ErrNotActive, res.Bucket, bucket)
			return
		}
		set := make([]*stream.Element, 0, len(res.Posts))
		for _, p := range res.Posts {
			e, ok := win.Get(stream.ElemID(p.ID))
			if !ok {
				err = fmt.Errorf("%w: post %d is not in the window of bucket %d", ErrNotActive, p.ID, bucket)
				return
			}
			set = append(set, e)
		}
		contribs = scorer.Explain(set, x)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Explanation, len(contribs))
	for i, c := range contribs {
		out[i] = Explanation{
			Post:      res.Posts[i],
			Gain:      c.Gain,
			Semantic:  c.Semantic,
			Influence: c.Influence,
			NewWords:  c.NewWords,
			Topics:    make(map[int]float64, len(c.TopicGains)),
		}
		for topic, g := range c.TopicGains {
			out[i].Topics[int(topic)] = g
		}
	}
	return out, nil
}
