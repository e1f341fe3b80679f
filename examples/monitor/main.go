// Monitor: a continuous-query scenario. The same k-SIR query is re-issued
// as the sliding window moves over a stream with shifting topic mix,
// showing how the result set tracks what is currently trending — the
// time-critical behaviour that distinguishes k-SIR from static summaries
// (§1: "previously trending contents may become outdated").
//
//	go run ./examples/monitor
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

var phases = []struct {
	label string
	words []string
}{
	{"rumor", strings.Fields("transfer rumor agent medical contract fee release clause talks saga")},
	{"match", strings.Fields("kickoff goal tackle halftime substitution corner offside header assist stoppage")},
	{"verdict", strings.Fields("verdict analysis ratings tactics formation pressing xg chances defence midfield")},
}

func main() {
	rng := rand.New(rand.NewSource(17))

	var corpus []string
	for i := 0; i < 900; i++ {
		corpus = append(corpus, text(rng, i%len(phases)))
	}
	model, err := ksir.TrainModel(corpus,
		ksir.WithTopics(6), ksir.WithIterations(60), ksir.WithSeed(4),
		ksir.WithPriors(0.5, 0.01))
	if err != nil {
		log.Fatal(err)
	}

	st, err := ksir.New(model, ksir.Options{
		Window: 20 * time.Minute,
		Bucket: time.Minute,
		Eta:    5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// One match day: rumors before kickoff, live-match chatter, then
	// post-match verdicts. 2 posts/3s; the query re-runs every 20 minutes.
	query := ksir.Query{K: 3, Keywords: []string{"goal", "tactics", "transfer"}}
	id := int64(0)
	var recent []int64
	for sec := int64(1); sec <= 3600; sec++ {
		phase := int(sec / 1201) // 0, 1, 2
		if sec%3 == 0 {
			id++
			p := ksir.Post{ID: id, Time: sec, Text: text(rng, phase)}
			if len(recent) > 5 && rng.Float64() < 0.25 {
				p.Refs = []int64{recent[len(recent)-1-rng.Intn(5)]}
			}
			if err := st.Add(p); err != nil {
				log.Fatal(err)
			}
			recent = append(recent, id)
			if len(recent) > 32 {
				recent = recent[1:]
			}
		}
		if sec%1200 == 0 {
			if err := st.Flush(sec); err != nil {
				log.Fatal(err)
			}
			res, err := st.Query(context.Background(), query)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("t=%2dmin (%s phase, %d active): score %.3f\n",
				sec/60, phases[phase].label, st.Stats().Active, res.Score)
			for i, p := range res.Posts {
				fmt.Printf("   %d. [%4ds] %s\n", i+1, p.Time, trim(p.Text, 7))
			}
			fmt.Println()
		}
	}
}

func text(rng *rand.Rand, phase int) string {
	w := phases[phase].words
	n := 5 + rng.Intn(4)
	out := make([]string, n)
	for i := range out {
		out[i] = w[rng.Intn(len(w))]
	}
	return strings.Join(out, " ")
}

func trim(s string, words int) string {
	f := strings.Fields(s)
	if len(f) > words {
		f = f[:words]
	}
	return strings.Join(f, " ")
}
