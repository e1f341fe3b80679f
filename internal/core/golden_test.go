package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/testutil"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite internal/core/testdata/query_golden.json from the current implementation")

const goldenFile = "testdata/query_golden.json"

// goldenRow pins one query answer bit for bit: the result IDs in selection
// order, the IEEE-754 bits of f(S, x) and the ranked-list descent depth.
type goldenRow struct {
	Query     int     `json:"query"`
	Algorithm string  `json:"algorithm"`
	K         int     `json:"k"`
	Epsilon   float64 `json:"epsilon"`
	IDs       []int64 `json:"ids"`
	ScoreBits uint64  `json:"score_bits"`
	Retrieved int     `json:"retrieved"`
}

// goldenStream is the golden fixture before ingestion: an empty engine, a
// seeded stream of long, multi-topic, heavily cross-referenced documents cut
// into buckets, and the generator, left where goldenEngine draws the query
// vectors from.
func goldenStream(t testing.TB) (*Engine, []stream.Bucket, *rand.Rand) {
	t.Helper()
	return seededStream(t, 20190326, 1500, 600)
}

// seededStream is goldenStream's generator for any seed, stream length and
// window length T (one element per time unit, 25-unit buckets).
func seededStream(t testing.TB, seed int64, elements int, windowT stream.Time) (*Engine, []stream.Bucket, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const (
		z, v      = 16, 400
		bucketLen = 25
	)
	model := testutil.RandModel(rng, z, v)
	elems := make([]*stream.Element, elements)
	for i := range elems {
		id := i + 1
		words := make([]textproc.WordID, 8+rng.Intn(33))
		for j := range words {
			words[j] = textproc.WordID(rng.Intn(v))
		}
		dense := make([]float64, z)
		var sum float64
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			p := 0.1 + rng.Float64()
			dense[rng.Intn(z)] += p
			sum += p
		}
		for j := range dense {
			dense[j] /= sum
		}
		e := &stream.Element{
			ID:     stream.ElemID(id),
			TS:     stream.Time(id),
			Doc:    textproc.NewDocument(words),
			Topics: topicmodel.NewTopicVec(dense),
		}
		for r, n := 0, rng.Intn(5); r < n && id > 1; r++ {
			// Half the references are recent (in-window children), half
			// reach anywhere in the past (resurrections).
			lo := 1
			if rng.Intn(2) == 0 && id > 200 {
				lo = id - 200
			}
			e.Refs = append(e.Refs, stream.ElemID(lo+rng.Intn(id-lo)))
		}
		elems[i] = e
	}
	g, err := NewEngine(Config{
		Model:        model,
		WindowLength: windowT,
		Params:       score.Params{Lambda: 0.5, Eta: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := stream.Partition(elems, bucketLen)
	if err != nil {
		t.Fatal(err)
	}
	return g, buckets, rng
}

// goldenEngine ingests the golden stream through a window shorter than the
// stream, so the published state has expired elements, referenced-only
// actives and children lists of every size — the shapes the evaluation
// state must handle identically.
func goldenEngine(t testing.TB) (*Engine, []topicmodel.TopicVec) {
	t.Helper()
	g, buckets, rng := goldenStream(t)
	for _, b := range buckets {
		if err := g.Ingest(b.End, b.Elems); err != nil {
			t.Fatal(err)
		}
	}
	return g, queryVectors(rng, g.cfg.Model.Z)
}

// queryVectors draws query vectors of 1, 3 and 6 topics plus a dense one.
func queryVectors(rng *rand.Rand, z int) []topicmodel.TopicVec {
	var xs []topicmodel.TopicVec
	for _, n := range []int{1, 3, 6, z} {
		dense := make([]float64, z)
		var sum float64
		for _, topic := range rng.Perm(z)[:n] {
			dense[topic] = 0.05 + rng.Float64()
			sum += dense[topic]
		}
		for j := range dense {
			dense[j] /= sum
		}
		xs = append(xs, topicmodel.NewTopicVec(dense))
	}
	return xs
}

func goldenRows(t testing.TB, g *Engine, xs []topicmodel.TopicVec) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for qi, x := range xs {
		for _, alg := range []Algorithm{MTTS, MTTD, TopkRep} {
			for _, k := range []int{5, 10, 20} {
				for _, eps := range []float64{0.05, 0.1, 0.3} {
					res, err := g.Query(Query{K: k, X: x, Epsilon: eps, Algorithm: alg})
					if err != nil {
						t.Fatal(err)
					}
					row := goldenRow{
						Query: qi, Algorithm: alg.String(), K: k, Epsilon: eps,
						ScoreBits: math.Float64bits(res.Score), Retrieved: res.Retrieved,
					}
					for _, id := range res.IDs() {
						row.IDs = append(row.IDs, int64(id))
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}

// TestQueryGolden asserts that every algorithm returns exactly the answers
// captured from the map-based evaluation state that preceded the flat,
// pooled one: same IDs in the same order, the same Score down to the last
// bit, the same descent depth. Each query runs twice so the second run goes
// through a recycled arena.
func TestQueryGolden(t *testing.T) {
	g, xs := goldenEngine(t)
	if *updateGolden {
		// One row per line keeps the file diffable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, row := range goldenRows(t, g, xs) {
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got := goldenRows(t, g, xs)
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d rows, golden has %d", pass, len(got), len(want))
		}
		for i := range want {
			w, r := want[i], got[i]
			if r.ScoreBits != w.ScoreBits || r.Retrieved != w.Retrieved || !equalIDs(r.IDs, w.IDs) {
				t.Errorf("pass %d query %d %s k=%d ε=%v:\n got ids %v score %x retrieved %d\nwant ids %v score %x retrieved %d",
					pass, w.Query, w.Algorithm, w.K, w.Epsilon,
					r.IDs, r.ScoreBits, r.Retrieved, w.IDs, w.ScoreBits, w.Retrieved)
			}
		}
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
