// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on the synthetic datasets: it builds the full pipeline
// (generate → train topic model → infer element vectors → feed the engine →
// interleave a query workload), times the methods, and renders the results
// in the paper's format. DESIGN.md §4 is the experiment index.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/dataset"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// Scale bounds the experiment sizes so the suite completes on one machine.
// The paper's corpora are 1.6–20M elements; shapes and relative timings are
// preserved at reduced scale (DESIGN.md §3).
type Scale struct {
	Elements    int   // stream size per dataset
	Queries     int   // workload size (the paper uses 10K)
	TopicIters  int   // Gibbs sweeps for topic training
	Seed        int64 // master seed
	WindowHours float64
}

// SmallScale is sized for CI and `go test -bench`: a full experiment takes
// seconds.
var SmallScale = Scale{Elements: 4000, Queries: 30, TopicIters: 25, Seed: 42, WindowHours: 24}

// DefaultScale is sized for the full `ksir-bench` runs reported in
// EXPERIMENTS.md.
var DefaultScale = Scale{Elements: 20000, Queries: 200, TopicIters: 40, Seed: 42, WindowHours: 24}

// Env is one fully prepared dataset environment.
type Env struct {
	Name    string
	Profile dataset.Profile
	Data    *dataset.Dataset
	Model   *topicmodel.Model
	Inf     *topicmodel.Inferencer
	TFIDF   *textproc.TFIDF
	Queries []dataset.QuerySpec
	Params  score.Params
	// WindowT and BucketL are the paper's T (24h default) and L (15min)
	// mapped into scaled stream time (same in-window fraction of the
	// stream as at full scale).
	WindowT stream.Time
	BucketL stream.Time

	scale Scale
}

// Lab builds and caches experiment environments (topic training dominates
// setup time, so sweeps reuse environments wherever the paper's protocol
// allows).
type Lab struct {
	scale Scale
	cache map[string]*Env
}

// NewLab returns a Lab at the given scale.
func NewLab(scale Scale) *Lab {
	return &Lab{scale: scale, cache: make(map[string]*Env)}
}

// profileFor returns the scaled profile by dataset name.
func profileFor(name string, n int) (dataset.Profile, error) {
	switch name {
	case "AMiner":
		return dataset.AMinerLike(n), nil
	case "Reddit":
		return dataset.RedditLike(n), nil
	case "Twitter":
		return dataset.TwitterLike(n), nil
	default:
		return dataset.Profile{}, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// DatasetNames lists the three evaluation datasets in paper order.
func DatasetNames() []string { return []string{"AMiner", "Reddit", "Twitter"} }

// Env returns the environment for (dataset, z), building it on first use:
// generate the stream, train LDA (AMiner/Reddit) or BTM (Twitter) with the
// paper's priors, infer every element's topic vector, and generate the
// query workload.
func (l *Lab) Env(name string, z int) (*Env, error) {
	key := fmt.Sprintf("%s/z=%d", name, z)
	if env, ok := l.cache[key]; ok {
		return env, nil
	}
	p, err := profileFor(name, l.scale.Elements)
	if err != nil {
		return nil, err
	}
	p.Topics = z
	// Re-apply the per-topic vocabulary floor: the profile was scaled with
	// its default topic count, and large z sweeps need wider vocabularies.
	if floor := z * 12; p.Vocab < floor {
		p.Vocab = floor
	}
	ds, err := dataset.Generate(p, l.scale.Seed)
	if err != nil {
		return nil, err
	}

	var model *topicmodel.Model
	if name == "Twitter" {
		model, _, err = topicmodel.TrainBTM(ds.Docs, topicmodel.BTMConfig{
			Topics: z, VocabSize: ds.Vocab.Size(),
			Iterations: l.scale.TopicIters, Seed: l.scale.Seed,
		})
	} else {
		model, _, err = topicmodel.TrainLDA(ds.Docs, topicmodel.LDAConfig{
			Topics: z, VocabSize: ds.Vocab.Size(),
			Iterations: l.scale.TopicIters, Seed: l.scale.Seed,
		})
	}
	if err != nil {
		return nil, err
	}
	inf := topicmodel.NewInferencer(model, l.scale.Seed)
	for i, e := range ds.Elements {
		e.Topics = inf.InferDoc(ds.Docs[i])
	}

	env := &Env{
		Name:    name,
		Profile: p,
		Data:    ds,
		Model:   model,
		Inf:     inf,
		TFIDF:   textproc.NewTFIDF(ds.Vocab, len(ds.Elements)),
		Queries: dataset.GenerateQueries(l.scale.Queries, ds, inf, l.scale.Seed+1),
		scale:   l.scale,
	}
	env.WindowT = env.windowFor(l.scale.WindowHours)
	// η's stated purpose (§3.2) is to bring the influence score's range to
	// the semantic score's. The paper's constants (20 / 200) do that at
	// full corpus scale; influence sums shrink with the window population
	// while semantic scores do not, so at reduced scale η must be
	// re-estimated from the data or influence is drowned (DESIGN.md §3).
	env.Params = score.Params{Lambda: 0.5, Eta: env.estimateEta()}
	env.BucketL = env.WindowT / 96 // L = 15min : T = 24h
	if env.BucketL < 1 {
		env.BucketL = 1
	}
	l.cache[key] = env
	return env, nil
}

// estimateEta matches the influence score's range to the semantic score's:
// η = p95(I) / p95(R) over per-element topic-wise scores, with in-window
// membership approximated by timestamp gap ≤ WindowT. Bounded below by 1
// so a reference-free stream cannot blow influence up.
func (env *Env) estimateEta() float64 {
	elems := env.Data.Elements
	byID := make(map[stream.ElemID]*stream.Element, len(elems))
	for _, e := range elems {
		byID[e.ID] = e
	}
	var rs, is []float64
	infl := make(map[stream.ElemID]float64)
	for _, e := range elems {
		// Semantic score on the element's dominant topic.
		if e.Topics.Len() > 0 {
			topic := e.Topics.Topics[0]
			pe := e.Topics.Probs[0]
			var r float64
			for _, tc := range e.Doc.Terms {
				p := env.Model.TopicWord(int(topic), tc.Word) * pe
				if p > 0 {
					r += -float64(tc.Count) * p * logf(p)
				}
			}
			if r > 0 {
				rs = append(rs, r)
			}
		}
		// Influence mass flowing to parents still within one window.
		for _, pid := range e.Refs {
			parent, ok := byID[pid]
			if !ok || e.TS-parent.TS > env.WindowT || parent.Topics.Len() == 0 {
				continue
			}
			topic := parent.Topics.Topics[0]
			infl[pid] += parent.Topics.Probs[0] * e.Topics.Prob(topic)
		}
	}
	for _, v := range infl {
		if v > 0 {
			is = append(is, v)
		}
	}
	pr, pi := percentile(rs, 0.95), percentile(is, 0.95)
	if pr == 0 || pi == 0 {
		return 1
	}
	eta := pi / pr
	if eta < 1 {
		eta = 1
	}
	return eta
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(q * float64(len(cp)-1))
	return cp[i]
}

func logf(x float64) float64 { return math.Log(x) }

// windowFor maps a wall-clock window length in hours to scaled stream time,
// preserving the in-window fraction of the full-size corpus.
func (env *Env) windowFor(hours float64) stream.Time {
	full, _ := profileFor(env.Name, 0) // full-size profile for the time base
	frac := hours * 3600 / float64(full.Duration)
	t := stream.Time(frac * float64(env.Profile.Duration))
	if t < 1 {
		t = 1
	}
	return t
}

// NewEngine builds a fresh engine for the env with window length T
// (defaults to env.WindowT when 0).
func (env *Env) NewEngine(T stream.Time) (*core.Engine, error) {
	if T == 0 {
		T = env.WindowT
	}
	return core.NewEngine(core.Config{
		Model:        env.Model,
		WindowLength: T,
		Params:       env.Params,
	})
}

// Replay feeds the whole stream through a fresh engine in buckets of
// BucketL, invoking handle for every workload query when its timestamp is
// reached (the paper's protocol: results retrieved at the assigned
// timestamps). A nil handle just feeds the stream.
func (env *Env) Replay(g *core.Engine, handle func(g *core.Engine, q dataset.QuerySpec) error) error {
	buckets, err := stream.Partition(env.Data.Elements, env.BucketL)
	if err != nil {
		return err
	}
	qi := 0
	for _, b := range buckets {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			return err
		}
		for qi < len(env.Queries) && env.Queries[qi].At <= b.End {
			if handle != nil {
				if err := handle(g, env.Queries[qi]); err != nil {
					return err
				}
			}
			qi++
		}
	}
	// Flush queries assigned after the last element.
	for qi < len(env.Queries) {
		if handle != nil {
			if err := handle(g, env.Queries[qi]); err != nil {
				return err
			}
		}
		qi++
	}
	return nil
}

// Actives materializes the active elements of the engine's window (the
// input the index-free baselines scan).
func Actives(g *core.Engine) []*stream.Element {
	out := make([]*stream.Element, 0, g.NumActive())
	g.Window().ForEachActive(func(e *stream.Element) { out = append(out, e) })
	return out
}
