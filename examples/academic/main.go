// Academic: an AMiner-like scenario. A stream of paper abstracts arrives in
// publication order with citation references reaching far into the past;
// k-SIR answers "give me k representative recent papers on <topic>",
// where influence = being cited by papers inside the recency window. This
// exercises the resurrection path: an old seminal paper re-enters the
// active set whenever a new in-window paper cites it.
//
//	go run ./examples/academic
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	ksir "github.com/social-streams/ksir"
)

// field is one research area with a characteristic vocabulary.
type field struct {
	name  string
	words []string
}

var fields = []field{
	{"databases", strings.Fields("query index transaction storage join optimizer btree concurrency logging shard")},
	{"machine-learning", strings.Fields("gradient network training embedding loss regularization classifier kernel attention dropout")},
	{"systems", strings.Fields("kernel scheduler cache throughput latency filesystem interrupt virtualization pagetable numa")},
}

func abstract(rng *rand.Rand, f field) string {
	n := 12 + rng.Intn(8)
	out := make([]string, n)
	for i := range out {
		out[i] = f.words[rng.Intn(len(f.words))]
	}
	return strings.Join(out, " ")
}

func main() {
	rng := rand.New(rand.NewSource(5))

	var corpus []string
	for i := 0; i < 900; i++ {
		corpus = append(corpus, abstract(rng, fields[i%len(fields)]))
	}
	model, err := ksir.TrainModel(corpus,
		ksir.WithTopics(6), ksir.WithIterations(60), ksir.WithSeed(3),
		ksir.WithPriors(0.5, 0.01))
	if err != nil {
		log.Fatal(err)
	}

	// Window: only papers from the last "year" (360 days, 1 day = 86400s)
	// count as fresh; citations from them keep older papers active.
	st, err := ksir.New(model, ksir.Options{
		Window: 360 * 24 * time.Hour,
		Bucket: 30 * 24 * time.Hour, // monthly batches
		Eta:    5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// 5 years of publications, ~40 papers/month. Each paper cites 2-4
	// earlier papers, biased toward highly cited ones in its own field
	// (preferential attachment — the citation classics emerge).
	type paper struct {
		id    int64
		field int
		cites int
	}
	var published []paper
	day := int64(86400)
	id := int64(0)
	for month := 0; month < 60; month++ {
		for p := 0; p < 40; p++ {
			id++
			f := rng.Intn(len(fields))
			post := ksir.Post{
				ID:   id,
				Time: int64(month)*30*day + int64(p)*day/2 + 1,
				Text: abstract(rng, fields[f]),
			}
			nCites := 2 + rng.Intn(3)
			for c := 0; c < nCites && len(published) > 0; c++ {
				// Preferential attachment within the same field.
				best := -1
				for try := 0; try < 8; try++ {
					cand := rng.Intn(len(published))
					if published[cand].field != f {
						continue
					}
					if best == -1 || published[cand].cites > published[best].cites {
						best = cand
					}
				}
				if best >= 0 {
					post.Refs = append(post.Refs, published[best].id)
					published[best].cites++
				}
			}
			if err := st.Add(post); err != nil {
				log.Fatal(err)
			}
			published = append(published, paper{id: id, field: f})
		}
	}
	if err := st.Flush(60 * 30 * day); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d papers over 5 years; %d active (last year + cited-by-it)\n\n",
		id, st.Stats().Active)

	// "Representative recent work on database systems."
	res, err := st.Query(context.Background(), ksir.Query{
		K:        4,
		Keywords: []string{"query", "index", "transaction"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-SIR: representative database papers (score %.3f, evaluated %d/%d):\n",
		res.Score, res.Evaluated, res.Active)
	for i, p := range res.Posts {
		year := p.Time / (360 * day)
		words := strings.Fields(p.Text)
		if len(words) > 8 {
			words = words[:8]
		}
		fmt.Printf("  %d. [paper %4d, year %d, cites %d earlier] %s...\n",
			i+1, p.ID, year+1, len(p.Refs), strings.Join(words, " "))
	}

	// Note the freshness semantics: papers older than the window can only
	// appear because a fresh paper cites them.
	cutoff := 60*30*day - 360*24*3600
	old := 0
	for _, p := range res.Posts {
		if p.Time <= cutoff {
			old++
		}
	}
	fmt.Printf("\n%d of %d results are older than the window (kept active by fresh citations)\n",
		old, len(res.Posts))
}
