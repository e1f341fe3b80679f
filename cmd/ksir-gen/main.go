// Command ksir-gen generates a synthetic social stream with the shape of
// one of the paper's evaluation corpora (Table 3) and writes it as JSON
// lines, one api/v1 Post per line, words joined by spaces:
//
//	{"id":17,"time":912,"text":"w00042 w00619","refs":[3]}
//
// Usage:
//
//	ksir-gen -profile twitter -n 10000 -seed 1 -out stream.jsonl
//
// It is the shape the /v1/streams/{name}/posts route and the connector's
// JSONL format take, and what `ksir-loadgen -in stream.jsonl` replays.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/internal/dataset"
)

func main() {
	var (
		profile = flag.String("profile", "twitter", "dataset shape: aminer|reddit|twitter")
		n       = flag.Int("n", 10000, "number of elements")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	var p dataset.Profile
	switch strings.ToLower(*profile) {
	case "aminer":
		p = dataset.AMinerLike(*n)
	case "reddit":
		p = dataset.RedditLike(*n)
	case "twitter":
		p = dataset.TwitterLike(*n)
	default:
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}

	ds, err := dataset.Generate(p, *seed)
	if err != nil {
		fatal(err)
	}

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	if err := write(f, ds); err != nil {
		fatal(err)
	}
	st := ds.ComputeStats()
	fmt.Fprintf(os.Stderr, "generated %d elements (%s-like): vocab=%d avg_len=%.1f avg_refs=%.2f\n",
		st.Elements, p.Name, st.VocabSize, st.AvgLen, st.AvgRefs)
}

// write encodes ds to w as api/v1 Post JSON lines.
func write(w io.Writer, ds *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	words := make([]string, 0, 64)
	for i, e := range ds.Elements {
		words = words[:0]
		for _, wid := range ds.Docs[i] {
			words = append(words, ds.Vocab.Word(wid))
		}
		p := apiv1.Post{ID: int64(e.ID), Time: int64(e.TS), Text: strings.Join(words, " ")}
		for _, r := range e.Refs {
			p.Refs = append(p.Refs, int64(r))
		}
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("encoding element %d: %w", e.ID, err)
		}
	}
	return bw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksir-gen:", err)
	os.Exit(1)
}
