package ksir_test

// Runnable godoc examples for the Hub lifecycle: open, ingest, query,
// subscribe. They are compile-checked by `go test` (no Output comments:
// training a topic model is too slow for the example runner) and kept in
// sync with the real API by the build.

import (
	"context"
	"fmt"
	"log"
	"time"

	ksir "github.com/social-streams/ksir"
)

// corpus stands in for the historical texts a deployment trains on.
var corpus = []string{
	"late goal wins the derby",
	"striker signs a new contract",
	"buzzer beater seals the playoffs",
}

// ExampleNewHub registers named streams in an in-memory hub, ingests a
// few posts and answers a k-SIR query. The hub serializes each stream's
// writers internally; queries run lock-free from any goroutine.
func ExampleNewHub() {
	model, err := ksir.TrainModel(corpus, ksir.WithTopics(8))
	if err != nil {
		log.Fatal(err)
	}
	hub := ksir.NewHub()
	defer hub.CloseAll()

	feed, err := hub.Create("feed", model, ksir.Options{Window: 24 * time.Hour, Bucket: 15 * time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	feed.Add(ksir.Post{ID: 1, Time: 60, Text: "late goal wins the derby"})
	feed.Add(ksir.Post{ID: 2, Time: 70, Text: "keeper saves a penalty", Refs: []int64{1}})
	feed.Flush(900) // close the bucket: everything buffered becomes queryable

	res, err := feed.Query(context.Background(), ksir.Query{K: 5, Keywords: []string{"goal", "derby"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Posts), res.Score, res.Bucket)
}

// ExampleOpenHub opens a durable hub: every accepted post lands in a
// per-stream write-ahead log, state is checkpointed periodically, and a
// crashed process recovers every stream exactly (same top-k, same bucket
// sequence, bit-identical scores) on the next OpenHub.
func ExampleOpenHub() {
	model, err := ksir.TrainModel(corpus, ksir.WithTopics(8))
	if err != nil {
		log.Fatal(err)
	}
	hub, err := ksir.OpenHub("/var/lib/ksir", model, ksir.PersistOptions{
		Fsync:           ksir.FsyncInterval,
		CheckpointEvery: 64, // buckets between automatic checkpoints
	})
	if err != nil {
		log.Fatal(err)
	}
	defer hub.CloseAll() // final checkpoints; state survives for the next OpenHub

	feed, err := hub.Create("feed", model, ksir.Options{Window: 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	feed.Add(ksir.Post{ID: 1, Time: 60, Text: "late goal wins the derby"})
}

// ExampleStream_Query_concurrent issues queries concurrently with ingestion:
// each query observes exactly one published bucket boundary (reported in
// Result.Bucket) and never blocks behind the writer.
func ExampleStream_Query_concurrent() {
	model, err := ksir.TrainModel(corpus, ksir.WithTopics(8))
	if err != nil {
		log.Fatal(err)
	}
	hub := ksir.NewHub()
	defer hub.CloseAll()
	feed, err := hub.Create("feed", model, ksir.Options{})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := feed.Query(ctx, ksir.Query{K: 10, Keywords: []string{"playoffs"}, Algorithm: ksir.MTTD})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Posts {
		fmt.Println(p.ID, p.Text)
	}
}

// ExampleStream_Subscribe registers a standing query: the stream
// re-evaluates it at bucket boundaries and reports refreshes to the
// handler until the context ends. A failing handler is isolated — it
// cannot stall ingestion.
func ExampleStream_Subscribe() {
	model, err := ksir.TrainModel(corpus, ksir.WithTopics(8))
	if err != nil {
		log.Fatal(err)
	}
	hub := ksir.NewHub()
	defer hub.CloseAll()
	feed, err := hub.Create("feed", model, ksir.Options{})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := feed.Subscribe(ctx,
		ksir.Query{K: 5, Keywords: []string{"soccer", "final"}},
		15*time.Minute,
		func(res ksir.Result) {
			fmt.Println("refresh at bucket", res.Bucket, "score", res.Score)
		},
		ksir.OnlyOnChange(), // suppress refreshes with an unchanged result set
	)
	if err != nil {
		log.Fatal(err)
	}
	defer feed.Unsubscribe(sub)
}
