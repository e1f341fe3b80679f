// Command ksir-loadgen drives open-loop load — arrivals on a precomputed
// schedule, never gated on completions, latency measured from each op's
// scheduled send time so the percentiles are coordinated-omission-free
// (internal/loadgen, DESIGN.md §14).
//
// Bench mode (default) runs the latency-under-load matrix in-process and
// writes BENCH_load.json — the committed curves CI gates against:
//
//	ksir-loadgen -json .
//	ksir-loadgen -short -json /tmp/out -baseline BENCH_load.json
//
// Remote mode drives a running ksir-server over the client SDK, with
// synthetic traffic or a recorded JSONL stream (ksir-gen output):
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
	"path/filepath"
	"strconv"
	"strings"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/internal/experiments"
	"github.com/social-streams/ksir/internal/jsonl"
	"github.com/social-streams/ksir/internal/loadgen"
)

func main() {
	var (
		// Bench mode.
		rates    = flag.String("rates", "500,1000,2000", "bench: comma-separated target rates (ops/sec)")
		cellSecs = flag.Float64("cell-secs", 2, "bench: schedule length per cell in seconds")
		streams  = flag.Int("streams", 16, "bench: stream count in the mixed-tenancy cell")
		short    = flag.Bool("short", false, "bench: CI smoke mode (two rates, half-second cells)")
		seed     = flag.Int64("seed", 42, "schedule seed")
		out      = flag.String("out", "", "write output to file (default stdout)")
		jsonDir  = flag.String("json", "", "bench: write machine-readable BENCH_load.json into this directory")
		baseline = flag.String("baseline", "", "committed BENCH_load.json to regression-check the fresh run against (requires -json)")
		regress  = flag.Float64("regress-factor", 3, "fail when a fresh gated metric exceeds baseline×factor")

		// Remote mode.
		addr    = flag.String("addr", "", "remote: base URL of a running ksir-server (enables remote mode)")
		stream  = flag.String("stream", "load", "remote: stream name")
		create  = flag.Bool("create", false, "remote: create the stream if it does not exist")
		rate    = flag.Float64("rate", 500, "remote: target op rate per second")
		shape   = flag.String("shape", "poisson", "remote: arrival shape (poisson|bursty|uniform)")
		ops     = flag.Int("ops", 2000, "remote: synthetic ops to schedule")
		in      = flag.String("in", "", "remote: replay this recorded JSONL stream (ksir-gen output) instead of synthetic posts")
		flatten = flag.Bool("flatten-ts", false, "remote replay: collapse recorded timestamps onto one value (avoids out-of-order rejections from concurrent replay reordering)")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *addr != "" {
		if err := runRemote(w, *addr, *stream, *in, *shape, *create, *flatten, *rate, *ops, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if err := runBench(w, *rates, *cellSecs, *streams, *short, *seed, *jsonDir, *baseline, *regress); err != nil {
		fatal(err)
	}
}

// runBench runs the in-process latency-under-load matrix and optionally
// gates it against a committed baseline (the CI smoke gate).
func runBench(w io.Writer, ratesCSV string, cellSecs float64, streams int, short bool, seed int64, jsonDir, baseline string, regress float64) error {
	rates, err := parseRates(ratesCSV)
	if err != nil {
		return err
	}
	sc := experiments.DefaultScale
	if short {
		sc = experiments.SmallScale
		// Keep the gated cells (r500, r1000) and shrink everything else.
		if len(rates) > 2 {
			rates = rates[:2]
		}
		if cellSecs > 0.5 {
			cellSecs = 0.5
		}
	}
	sc.Seed = seed
	lab := experiments.NewLab(sc)

	start := time.Now()
	t, entries, err := lab.Load(rates, cellSecs, streams)
	if err != nil {
		return err
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(jsonDir, "BENCH_load.json")
		if err := experiments.WriteBenchJSON(path, entries); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d entries)\n", path, len(entries))
	}
	if baseline != "" {
		if err := checkLoadBaseline(w, jsonDir, baseline, regress); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// checkLoadBaseline gates the load trajectory on two stable cells: the
// add p50 at the lowest rate (the pipeline's latency floor: one commit,
// one fsync) and the fsyncs/op at the middle rate (the group-commit
// amortization open-loop arrivals get by themselves). The p99 tails and
// the saturating high-rate cells are deliberately not gated — short smoke
// cells have too few samples for a stable tail, and an open-loop p99 under
// saturation grows with schedule length by design.
func checkLoadBaseline(w io.Writer, jsonDir, baseline string, factor float64) error {
	if jsonDir == "" {
		return fmt.Errorf("-baseline requires -json <dir>")
	}
	freshPath := filepath.Join(jsonDir, "BENCH_load.json")
	for _, metric := range []string{"load-add-p50-ms-poisson-r500", "load-fsyncs-per-op-poisson-r1000"} {
		fresh, base, err := experiments.CompareBenchJSON(freshPath, baseline, metric, factor)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "load baseline check ok: %s %.3f vs committed %.3f (limit %.1fx)\n", metric, fresh, base, factor)
	}
	return nil
}

func parseRates(csv string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return rates, nil
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
