// Quickstart: train a topic model on a small two-topic corpus, stream a
// handful of posts (including retweets), and answer a k-SIR keyword query.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	ksir "github.com/social-streams/ksir"
)

func main() {
	// 1. Train a topic model offline on a representative corpus. Real
	// deployments train on a large sample of the stream; here a toy corpus
	// with two obvious topics (soccer and basketball) suffices.
	var corpus []string
	soccer := []string{
		"goal striker league derby penalty kick",
		"keeper saves the penalty in the champions league final",
		"derby ends with a late goal from the striker",
		"midfield control wins the league title",
		"champions league draw pits the derby rivals",
		"the striker tops the league scoring chart",
	}
	basketball := []string{
		"dunk rebound playoffs court buzzer beater",
		"triple double carries the team through the playoffs",
		"buzzer beater wins the quarter final on the road court",
		"rebound battle decides the playoffs opener",
		"assist streak sets a playoffs record",
		"the dunk contest lights up the court",
	}
	for i := 0; i < 10; i++ {
		corpus = append(corpus, soccer...)
		corpus = append(corpus, basketball...)
	}
	model, err := ksir.TrainModel(corpus,
		ksir.WithTopics(2),
		ksir.WithIterations(50),
		ksir.WithSeed(1),
		ksir.WithPriors(0.5, 0.01), // small alpha: only 2 topics
	)
	if err != nil {
		log.Fatal(err)
	}
	for t := 0; t < model.Topics(); t++ {
		words, _ := model.TopWords(t, 4)
		fmt.Printf("topic %d: %v\n", t, words)
	}

	// 2. Open a stream with a 1-hour sliding window and 1-minute buckets.
	st, err := ksir.New(model, ksir.Options{
		Window: time.Hour,
		Bucket: time.Minute,
		Eta:    2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Feed posts in timestamp order. Refs model retweets/replies.
	posts := []ksir.Post{
		{ID: 1, Time: 60, Text: "late goal wins the derby for the league leaders"},
		{ID: 2, Time: 120, Text: "what a dunk in the playoffs opener"},
		{ID: 3, Time: 180, Text: "champions league: keeper saves a penalty"},
		{ID: 4, Time: 240, Text: "rebound and buzzer beater seal the playoffs game", Refs: []int64{2}},
		{ID: 5, Time: 300, Text: "the striker scores again #league", Refs: []int64{1}},
		{ID: 6, Time: 360, Text: "penalty shootout decides the derby", Refs: []int64{1, 3}},
		{ID: 7, Time: 420, Text: "triple double in the quarter final", Refs: []int64{2}},
	}
	for _, p := range posts {
		if err := st.Add(p); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Flush(480); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d active posts at t=%d\n", st.Active(), st.Now())

	// 4. Query: the k most representative posts about soccer right now.
	res, err := st.Query(context.Background(), ksir.Query{
		K:        2,
		Keywords: []string{"league", "goal"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nk-SIR result (score %.4f, evaluated %d/%d):\n",
		res.Score, res.Evaluated, res.Active)
	for i, p := range res.Posts {
		fmt.Printf("  %d. [post %d] %s\n", i+1, p.ID, p.Text)
	}
}
