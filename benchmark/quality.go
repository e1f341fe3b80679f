package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/social-streams/ksir"
	"github.com/social-streams/ksir/internal/baselines"
	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
)

const qualityQueries = 64

// quality re-evaluates pinned queries against baselines.CELF over an engine
// the benchmark feeds the same posts the stream was sent, and returns the
// mean f(S)/f(S_CELF) of the MTTD answers. An MTTD answer below
// 1 − 1/e − ε of CELF's, or an MTTS answer below 1/2 − ε, fails the run.
func (b *bed) quality(r *recorder) (float64, error) {
	lm, err := splitModel(b.model)
	if err != nil {
		return 0, err
	}
	sent := b.in.posts[:b.next[0]]
	elems := make([]*stream.Element, len(sent))
	for i, p := range sent {
		elems[i], _, _ = lm.element(p)
	}
	opts := b.in.opts
	eng, err := core.NewEngine(lm.engineConfig(opts))
	if err != nil {
		return 0, err
	}
	if err := feedBuckets(elems, stream.Time(opts.Bucket/time.Second), eng.Ingest); err != nil {
		return 0, err
	}
	h := b.handles[0]
	if st := h.Stats(); st.Active != eng.NumActive() || st.Now != int64(eng.Now()) {
		return 0, fmt.Errorf("reference engine holds %d posts at %d, the stream %d at %d", eng.NumActive(), eng.Now(), st.Active, st.Now)
	}
	var actives []*stream.Element
	eng.Window().ForEachActive(func(e *stream.Element) { actives = append(actives, e) })

	var sum float64
	for i := 0; i < qualityQueries; i++ {
		q := b.in.queries[len(b.in.queries)-1-i]
		var ids []textproc.WordID
		for _, kw := range q.Keywords {
			ids = append(ids, lm.ids(kw)...)
		}
		x := lm.inf.InferDense(ids).Truncate(8, 0.02)
		ref := baselines.CELF(eng.Scorer(), actives, x, q.K).Score
		vq := ksir.Query{K: q.K, Epsilon: q.Epsilon, Vector: make(map[int]float64)}
		for j, t := range x.Topics {
			vq.Vector[int(t)] = x.Probs[j]
		}
		for _, alg := range []ksir.Algorithm{ksir.MTTD, ksir.MTTS} {
			vq.Algorithm = alg
			res, err := h.Query(context.Background(), vq)
			r.attempted.Add(1)
			if err != nil {
				r.fail(err)
				continue
			}
			set := score.NewCandidateSet(eng.Scorer(), x)
			for _, p := range res.Posts {
				e, ok := eng.Window().Get(stream.ElemID(p.ID))
				if !ok {
					r.fail(fmt.Errorf("query returned post %d, which is not active", p.ID))
					continue
				}
				set.Add(e)
			}
			ratio, floor := set.Value()/ref, 1-1/math.E-q.Epsilon
			if alg == ksir.MTTS {
				floor = 0.5 - q.Epsilon
			} else {
				sum += ratio
			}
			if ratio < floor {
				r.fail(fmt.Errorf("pinned query %d: f(S)/f(CELF) = %.3f, below the guarantee %.3f", i, ratio, floor))
			}
		}
	}
	return sum / qualityQueries, nil
}
