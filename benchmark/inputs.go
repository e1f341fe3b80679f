package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/social-streams/ksir"
	"github.com/social-streams/ksir/internal/dataset"
	"github.com/social-streams/ksir/internal/loadgen"
	"github.com/social-streams/ksir/internal/textproc"
)

// clockScale turns the generators' second timestamps into the integer
// millisecond clock every workload runs on, so L = T/96 stays exact for the
// small windows of tenant-churn and serve-mixed's wall-clock schedule shares
// the unit.
const clockScale = 1000

// spec holds one workload's sizes. They were calibrated once on the
// reference sandbox (2 cores) and are never adapted per run; README.md
// records the calibration.
type spec struct {
	name    string
	profile func(n int) dataset.Profile
	posts   int // timeline length
	train   int // leading texts the topic model is trained on
	preload int // posts per stream ingested before measuring (fills the window)
	active  int // steady-state n_t the window T is sized for; L = T/96
	streams int
	// resident is MaxResidentStreams (0: no residency budget).
	resident int
	fsync    ksir.FsyncPolicy
	// addBatch is the number of posts per add call of the closed-loop and
	// paced senders (serve-mixed sends whatever is due).
	addBatch int
	// addRate is the paced writer's posts/s (query-storm) or the base rate R
	// of the three open-loop steps (serve-mixed); 0 means closed loop.
	addRate float64
	// closedRate sizes a closed-loop producer's work: it sends closedRate
	// posts per second of measuring asked for, however long that takes, so
	// that every run leaves the streams in the same state. It is the
	// producer's rate on the reference sandbox, where the phase then lasts
	// about as long as asked.
	closedRate float64
	// queryRate is the paced reader's queries/s; 0 means closed-loop readers.
	queryRate float64
	// replayWarm, replayPosts and replayQueries size the traced onion
	// replay: the posts that fill the window, the timed slice, the queries.
	replayWarm, replayPosts, replayQueries int
}

var specs = []spec{
	{name: "ingest-firehose", profile: dataset.TwitterLike, posts: 150000, train: 10000,
		preload: 15000, active: 10000, streams: 1, fsync: ksir.FsyncInterval,
		addBatch: 64, closedRate: 11500, queryRate: 60, replayWarm: 10500, replayPosts: 3000, replayQueries: 200},
	{name: "query-storm", profile: dataset.AMinerLike, posts: 10000, train: 6000,
		preload: 6400, active: 4000, streams: 1, fsync: ksir.FsyncInterval,
		addBatch: 1, addRate: 125, replayWarm: 4400, replayPosts: 500, replayQueries: 150},
	{name: "serve-mixed", profile: dataset.RedditLike, posts: 20000, train: 10000,
		preload: 12000, streams: 1, fsync: ksir.FsyncAlways,
		addRate: 300, queryRate: 60, replayWarm: 12000, replayPosts: 2000, replayQueries: 200},
	{name: "tenant-churn", profile: dataset.TwitterLike, posts: 60000, train: 10000,
		preload: 800, active: 700, streams: 32, resident: 4, fsync: ksir.FsyncInterval,
		addBatch: 8, closedRate: 5000, replayWarm: 800, replayPosts: 4000, replayQueries: 200},
}

// serve-mixed runs on a wall-clock schedule: bucket and window in
// milliseconds, and the preload spread over enough buckets that the forced
// checkpoint after it is the last one before measuring ends.
const (
	serveBucket  = 250
	serveWindow  = 25000
	servePreload = 33000 // ms of stream time the preloaded posts span
	serveEpoch   = 1_000_000
)

// corpusSeed generates each workload's corpus and trains its topic model.
// The corpus stands in for the paper's fixed AMiner, Reddit and Twitter dumps
// and is the same on every run; --seed draws the traffic on it: which
// queries, in which order, at which instants, to which tenant. With the
// corpus drawn from --seed too, the median query on query-storm cost 1.42 to
// 1.85 ms from one seed to the next, against 1.58 to 1.79 ms for ten runs of
// one seed: the topic structure a corpus happens to get decided the number,
// not the program.
const corpusSeed = 1

const (
	topics       = 50
	trainIters   = 30
	numQueries   = 1024
	pinnedChecks = 16 // queries compared before and after each restart
	zipfS        = 1.1
	zipfDraws    = 1 << 16
)

// smoke shrinks a spec to about a tenth, for the schema-and-checks-only mode (with 1 s phases).
func (s spec) smoke() spec {
	s.posts = max(s.posts/10, 3000)
	s.preload /= 10
	if s.active > 0 {
		s.active /= 10
	}
	s.train = 2500 // fewer texts leave too few words for 50 topics
	if s.streams > 1 {
		// Windows much under 400 posts can hold none on a query's topics.
		s.streams, s.resident, s.preload, s.active = 8, 2, 500, 400
	}
	s.replayWarm /= 10
	s.replayPosts /= 10
	s.replayQueries /= 10
	return s
}

// inputs is everything a workload feeds the service: the fixed corpus and the
// traffic drawn from the seed. The program under test never sees the seed or
// the generators.
type inputs struct {
	spec    spec
	seed    int64
	posts   []ksir.Post
	texts   []string // training corpus: the first spec.train texts
	queries []ksir.Query
	opts    ksir.Options
	// offsets is serve-mixed's arrival schedule of the live posts, measured
	// from the start of measuring; stepEnd[i] is the index one past step i.
	offsets []time.Duration
	stepEnd [3]int
	// queryOffsets is the paced readers' Poisson schedule.
	queryOffsets []time.Duration
	// draws is tenant-churn's Zipf stream choice, one list per client.
	draws [2][]int
	sha   string
}

// generate builds a workload's inputs for `seconds` of measuring.
func generate(s spec, seed int64, seconds float64) (*inputs, error) {
	d, err := dataset.Generate(s.profile(s.posts), corpusSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: s, seed: seed, posts: make([]ksir.Post, len(d.Elements))}
	var sb strings.Builder
	for i, e := range d.Elements {
		sb.Reset()
		for j, w := range d.Docs[i] {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(d.Vocab.Word(w))
		}
		var refs []int64
		for _, r := range e.Refs {
			refs = append(refs, int64(r))
		}
		in.posts[i] = ksir.Post{ID: int64(e.ID), Time: int64(e.TS) * clockScale, Text: sb.String(), Refs: refs}
	}
	in.texts = make([]string, s.train)
	for i := range in.texts {
		in.texts[i] = in.posts[i].Text
	}

	in.opts = ksir.Options{Eta: d.Profile.Eta}
	if s.active > 0 {
		// T holds about `active` posts of this timeline; L = T/96 (§5.1).
		span := float64(in.posts[len(in.posts)-1].Time - in.posts[0].Time)
		bucket := int64(span * float64(s.active) / float64(len(in.posts)) / 96)
		if bucket < 1 {
			bucket = 1
		}
		in.opts.Bucket = time.Duration(bucket) * time.Second
		in.opts.Window = 96 * in.opts.Bucket
	} else {
		in.opts.Bucket = serveBucket * time.Second
		in.opts.Window = serveWindow * time.Second
		in.scheduleServe(seconds)
	}
	in.queries = makeQueries(d, s.train, seed)
	if s.queryRate > 0 {
		// Twice the time asked for: a closed-loop phase on a slow machine
		// outlasts it.
		n := int(2*s.queryRate*seconds) + 1
		in.queryOffsets = loadgen.Offsets(loadgen.Poisson, n, s.queryRate, seed+11)
	}
	if s.streams > 1 {
		for c := range in.draws {
			in.draws[c] = zipfList(s.streams, zipfDraws, seed+17+int64(c))
		}
	}
	in.sha = in.hash()
	return in, nil
}

// scheduleServe replaces the timeline's timestamps by serve-mixed's
// wall-clock schedule: the preload evenly over servePreload ms before the
// epoch, the live posts on three Poisson steps at R, 2R and 3R after it.
func (in *inputs) scheduleServe(seconds float64) {
	s := in.spec
	for i := 0; i < s.preload; i++ {
		in.posts[i].Time = serveEpoch - servePreload + int64(i)*servePreload/int64(s.preload)
	}
	step := seconds / 3
	var base time.Duration
	for k := 0; k < 3; k++ {
		rate := s.addRate * float64(k+1)
		n := int(rate * step)
		for _, off := range loadgen.Offsets(loadgen.Poisson, n, rate, in.seed+int64(k)+3) {
			if off.Seconds() >= step {
				break
			}
			in.offsets = append(in.offsets, base+off)
		}
		in.stepEnd[k] = len(in.offsets)
		base += time.Duration(step * float64(time.Second))
	}
	if s.preload+len(in.offsets) > len(in.posts) {
		in.offsets = in.offsets[:len(in.posts)-s.preload]
	}
	for i, off := range in.offsets {
		in.posts[s.preload+i].Time = serveEpoch + 1 + off.Milliseconds()
	}
	in.posts = in.posts[:s.preload+len(in.offsets)]
}

// makeQueries follows the §5.1 recipe of dataset.GenerateQueries on the text
// side: 1–5 keywords drawn by corpus frequency, ε = 0.1, k ∈ {5, 10, 20} at
// 25/50/25 %. Every query keeps at least one keyword that survives the
// model's vocabulary pruning (document frequency ≥ 2 in the training texts),
// so none is refused as out-of-vocabulary.
func makeQueries(d *dataset.Dataset, train int, seed int64) []ksir.Query {
	rng := rand.New(rand.NewSource(seed + 7))
	df := make([]int32, d.Vocab.Size())
	seen := make(map[int32]struct{})
	for _, doc := range d.Docs[:train] {
		clear(seen)
		for _, w := range doc {
			if _, dup := seen[int32(w)]; !dup {
				seen[int32(w)] = struct{}{}
				df[w]++
			}
		}
	}
	cum := make([]int64, d.Vocab.Size())
	var total int64
	for i := range cum {
		total += d.Vocab.Freq(textproc.WordID(i)) + 1
		cum[i] = total
	}
	draw := func() int {
		r := rng.Int63n(total)
		return sort.Search(len(cum), func(i int) bool { return cum[i] > r })
	}
	ks := [4]int{5, 10, 10, 20}
	queries := make([]ksir.Query, 0, numQueries)
	for len(queries) < numQueries {
		kws := make([]string, 1+rng.Intn(5))
		known := false
		for j := range kws {
			w := draw()
			// Pruning keeps 2 ≤ df ≤ half the training documents.
			known = known || (df[w] >= 2 && int(df[w]) <= train/2)
			kws[j] = d.Vocab.Word(textproc.WordID(w))
		}
		if !known {
			continue
		}
		queries = append(queries, ksir.Query{K: ks[rng.Intn(4)], Keywords: kws, Epsilon: 0.1})
	}
	return queries
}

// zipfList draws n stream indices with P(i) ∝ 1/(i+1)^zipfS.
func zipfList(streams, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, streams)
	var total float64
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), zipfS)
		cum[i] = total
	}
	out := make([]int, n)
	for i := range out {
		r := rng.Float64() * total
		out[i] = sort.SearchFloat64s(cum, r)
		if out[i] >= streams {
			out[i] = streams - 1
		}
	}
	return out
}

// hash identifies the inputs: posts, queries, schedules and Zipf draws.
func (in *inputs) hash() string {
	h := sha256.New()
	num := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, p := range in.posts {
		num(p.ID)
		num(p.Time)
		h.Write([]byte(p.Text))
		for _, r := range p.Refs {
			num(r)
		}
	}
	for _, q := range in.queries {
		num(int64(q.K))
		h.Write([]byte(strings.Join(q.Keywords, " ")))
	}
	for _, offs := range [][]time.Duration{in.offsets, in.queryOffsets} {
		for _, off := range offs {
			num(int64(off))
		}
	}
	for _, draws := range in.draws {
		for _, s := range draws {
			num(int64(s))
		}
	}
	fmt.Fprintf(h, "%d %d", in.opts.Window, in.opts.Bucket)
	return hex.EncodeToString(h.Sum(nil))
}
