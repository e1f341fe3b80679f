package ksir

import (
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

// Explain recomputes a result's per-post contribution breakdown against the
// current window. Call it right after Query (before further Ingest/Flush
// calls change the window) with the same query you issued. Like Query it
// is safe to call concurrently with ingestion: it pins the last published
// snapshot for the whole computation.
func (s *Stream) Explain(res Result, q Query) ([]Explanation, error) {
	x, err := queryVector(s.model, q)
	if err != nil {
		return nil, err
	}
	var contribs []score.Contribution
	s.engine.ReadSnapshot(func(win *stream.ActiveWindow, scorer *score.Scorer) {
		set := make([]*stream.Element, 0, len(res.Posts))
		for _, p := range res.Posts {
			e, ok := win.Get(stream.ElemID(p.ID))
			if !ok {
				err = fmt.Errorf("%w: post %d; explain before ingesting further", ErrNotActive, p.ID)
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
