// Command ksir-loadgen drives open-loop load — arrivals on a precomputed
// schedule, never gated on completions, latency measured from each op's
// scheduled send time so the percentiles are coordinated-omission-free
// (internal/loadgen, DESIGN.md §14).
//
// It drives a running ksir-server over the client SDK, with synthetic
// traffic or a recorded JSONL stream (ksir-gen output); the committed
// latency-under-load numbers are benchmark/'s serve-mixed workload, which
// runs on the same internal/loadgen:
//
//	ksir-loadgen -addr http://localhost:8080 -stream fire -create -rate 500 -shape bursty -ops 5000
//	ksir-loadgen -addr http://localhost:8080 -stream fire -in stream.jsonl -rate 1000
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/internal/jsonl"
	"github.com/social-streams/ksir/internal/loadgen"
)

func main() {
	var (
		addr    = flag.String("addr", "", "base URL of a running ksir-server (required)")
		stream  = flag.String("stream", "load", "stream name")
		create  = flag.Bool("create", false, "create the stream if it does not exist")
		rate    = flag.Float64("rate", 500, "target op rate per second")
		shape   = flag.String("shape", "poisson", "arrival shape (poisson|bursty|uniform)")
		ops     = flag.Int("ops", 2000, "synthetic ops to schedule")
		in      = flag.String("in", "", "replay this recorded JSONL stream (ksir-gen output) instead of synthetic posts")
		flatten = flag.Bool("flatten-ts", false, "replay: collapse recorded timestamps onto one value (avoids out-of-order rejections from concurrent replay reordering)")
		seed    = flag.Int64("seed", 42, "schedule seed")
		out     = flag.String("out", "", "write output to file (default stdout)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "ksir-loadgen: -addr is required")
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if err := runRemote(w, *addr, *stream, *in, *shape, *create, *flatten, *rate, *ops, *seed); err != nil {
		fatal(err)
	}
}

// runRemote drives a running server open-loop over the SDK and prints
// the from-scheduled latency distribution.
func runRemote(w io.Writer, addr, stream, in, shapeName string, create, flatten bool, rate float64, ops int, seed int64) error {
	shape, err := loadgen.ParseShape(shapeName)
	if err != nil {
		return err
	}
	cl := client.New(addr)
	ctx := context.Background()
	if create {
		_, err := cl.CreateStream(ctx, apiv1.CreateStreamRequest{Name: stream})
		if err != nil && !errors.Is(err, ksir.ErrStreamExists) {
			return err
		}
	}
	st := cl.Stream(stream)

	var posts []apiv1.Post
	if in != "" {
		if posts, err = readRecorded(in); err != nil {
			return err
		}
		if len(posts) == 0 {
			return fmt.Errorf("%s: no posts", in)
		}
		if ops > len(posts) || ops <= 0 {
			ops = len(posts)
		}
		posts = posts[:ops]
		if flatten {
			for i := range posts {
				posts[i].Time = posts[0].Time
			}
		}
		fmt.Fprintf(w, "replaying %d recorded posts from %s\n", len(posts), in)
	}

	offsets := loadgen.Offsets(shape, ops, rate, seed)
	words := []string{"goal striker keeper league", "dunk rebound playoffs court"}
	res := loadgen.Run(ctx, offsets, func(ctx context.Context, i int) error {
		var p apiv1.Post
		if posts != nil {
			p = posts[i]
		} else {
			// Synthetic: one shared timestamp keeps every post in-order
			// regardless of completion interleaving.
			p = apiv1.Post{ID: int64(i + 1), Time: 700, Text: words[i%2]}
		}
		_, err := st.Add(ctx, p)
		return err
	})

	fmt.Fprintf(w, "open-loop %s @ %.0f/s against %s (stream %q): %d ops, %d errors, realized %.0f/s\n",
		shape, rate, addr, stream, len(res.Latency), res.Errors,
		float64(len(res.Latency))/res.Elapsed.Seconds())
	for _, p := range []float64{50, 90, 99, 99.9} {
		fmt.Fprintf(w, "  p%-5v %12v (service %12v)\n", p,
			loadgen.Percentile(res.Latency, p).Round(10*time.Microsecond),
			loadgen.Percentile(res.Service, p).Round(10*time.Microsecond))
	}
	fmt.Fprintf(w, "  max generator dispatch lag: %v\n", res.MaxLag.Round(10*time.Microsecond))
	if posts != nil && res.Errors > 0 {
		fmt.Fprintf(w, "note: errors during recorded replay are usually out-of-order rejections — concurrent open-loop sends reorder a time-ordered recording at bucket boundaries; -flatten-ts avoids them\n")
	}
	return nil
}

// readRecorded loads a ksir-gen JSONL stream as wire posts (words joined
// into text; timestamps preserved, so replay order follows the recording).
func readRecorded(path string) ([]apiv1.Post, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var posts []apiv1.Post
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e jsonl.Elem
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		posts = append(posts, apiv1.Post{
			ID: e.ID, Time: e.TS, Text: strings.Join(e.Words, " "), Refs: e.Refs,
		})
	}
	return posts, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksir-loadgen:", err)
	os.Exit(1)
}
