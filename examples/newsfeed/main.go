// Newsfeed: a Twitter-like scenario. Thousands of short posts about several
// concurrent stories flow through a sliding window with retweet dynamics;
// a k-SIR query builds a representative feed for one story, and the result
// is contrasted with a plain top-k ranking to show why representativeness
// matters (the paper's §1 motivation).
//
//	go run ./examples/newsfeed
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

// story is one trending news story with its own vocabulary.
type story struct {
	name  string
	words []string
	rate  int // posts per 100 slots
}

var stories = []story{
	{"cup-final", strings.Fields("final cup goal extratime penalty keeper crowd stadium whistle equalizer"), 40},
	{"playoffs", strings.Fields("playoffs game4 dunk overtime buzzer rebound courtside comeback steal block"), 35},
	{"elections", strings.Fields("election ballot turnout exitpoll debate county margin recount precinct coalition"), 25},
}

func postText(rng *rand.Rand, s story) string {
	n := 4 + rng.Intn(4)
	out := make([]string, n)
	for i := range out {
		out[i] = s.words[rng.Intn(len(s.words))]
	}
	return strings.Join(out, " ")
}

func main() {
	rng := rand.New(rand.NewSource(11))

	// Training corpus: a historical sample with all stories represented.
	var corpus []string
	for i := 0; i < 1200; i++ {
		corpus = append(corpus, postText(rng, stories[i%len(stories)]))
	}
	model, err := ksir.TrainModel(corpus,
		ksir.WithTopics(6), ksir.WithIterations(60), ksir.WithSeed(2),
		ksir.WithPriors(0.5, 0.01))
	if err != nil {
		log.Fatal(err)
	}

	st, err := ksir.New(model, ksir.Options{
		Window: 30 * time.Minute,
		Bucket: time.Minute,
		Eta:    10, // retweet-heavy stream: damp the influence scale
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Live stream: 3000 posts over an hour. Popular posts attract
	// retweets (references) with preferential attachment; the cup final
	// story "breaks" in the second half hour and dominates.
	var recent []int64 // recent post IDs for retweet targeting
	id := int64(0)
	for slot := 0; slot < 3600; slot += 1 {
		r := rng.Intn(100)
		var s story
		switch {
		case slot > 1800 && r < 55: // breaking story
			s = stories[0]
		case r < 35:
			s = stories[1]
		case r < 60:
			s = stories[2]
		case r < 75:
			s = stories[0]
		default:
			continue // quiet slot
		}
		id++
		p := ksir.Post{ID: id, Time: int64(slot + 1), Text: postText(rng, s)}
		// 30% of posts are retweets of a recent post.
		if len(recent) > 10 && rng.Float64() < 0.3 {
			p.Refs = []int64{recent[len(recent)-1-rng.Intn(10)]}
		}
		if err := st.Add(p); err != nil {
			log.Fatal(err)
		}
		recent = append(recent, id)
		if len(recent) > 64 {
			recent = recent[1:]
		}
	}
	if err := st.Flush(3600); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream: %d posts ingested, %d active in the 30min window\n\n", id, st.Stats().Active)

	// A user asks for a representative feed about the cup final.
	query := ksir.Query{K: 5, Keywords: []string{"final", "goal", "penalty"}}

	feed, err := st.Query(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-SIR feed (MTTD, score %.3f, evaluated %d of %d active):\n",
		feed.Score, feed.Evaluated, feed.Active)
	for i, p := range feed.Posts {
		fmt.Printf("  %d. [%4ds] %s\n", i+1, p.Time, p.Text)
	}

	// Contrast: plain top-k by individual score returns near-duplicates
	// of the single hottest post.
	query.Algorithm = ksir.TopK
	topk, err := st.Query(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplain top-%d by individual score (score %.3f — lower coverage):\n",
		query.K, topk.Score)
	for i, p := range topk.Posts {
		fmt.Printf("  %d. [%4ds] %s\n", i+1, p.Time, p.Text)
	}
	fmt.Printf("\ndistinct words covered: k-SIR=%d, top-k=%d\n",
		distinctWords(feed.Posts), distinctWords(topk.Posts))
}

func distinctWords(posts []ksir.Post) int {
	set := make(map[string]struct{})
	for _, p := range posts {
		for _, w := range strings.Fields(p.Text) {
			set[w] = struct{}{}
		}
	}
	return len(set)
}
