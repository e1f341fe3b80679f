package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ksir "github.com/social-streams/ksir"
)

// ingestCellResult is one cell of the ingest matrix.
type ingestCellResult struct {
	wall        time.Duration
	p99         time.Duration // 0 unless the cell sampled reader latency
	batchSize   float64       // realized mean commit-batch size
	fsyncsPerOp float64
}

// ingestCell runs one cell: n posts at one shared timestamp pushed by p
// concurrent producers through a hub configured with the given fsync
// policy (mem == no persistence).
//
// All measured posts share one timestamp, so acceptance never depends on
// producer interleaving and no bucket boundary crosses the measurement:
// the cell isolates the writer path (tokenize + infer + pend + WAL). A
// pre-seeded, flushed snapshot keeps concurrent readers honest when the
// cell samples query latency.
func (l *Lab) ingestCell(model *ksir.Model, policy string, producers, n int, measureP99 bool) (ingestCellResult, error) {
	var res ingestCellResult
	var hub *ksir.Hub
	switch policy {
	case "mem":
		hub = ksir.NewHub()
	default:
		fp, err := ksir.ParseFsyncPolicy(policy)
		if err != nil {
			return res, err
		}
		dir, err := os.MkdirTemp("", "ksir-ingest-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		hub, err = ksir.OpenHub(dir, model, ksir.PersistOptions{
			Fsync: fp, CheckpointEvery: 1 << 30,
		})
		if err != nil {
			return res, err
		}
	}
	defer hub.CloseAll()
	hs, err := hub.Create("bench", model, persistStreamOpts)
	if err != nil {
		return res, err
	}

	// Seed a queryable snapshot: posts across the minute-long buckets
	// before the measured timestamp, flushed so readers have a published
	// bucket to pin while the writers run.
	seedWords := []string{"goal striker keeper", "dunk rebound playoffs", "league derby penalty", "court buzzer triple"}
	for i := 0; i < 256; i++ {
		p := ksir.Post{ID: int64(1_000_000 + i), Time: int64(60 + 2*i), Text: seedWords[i%len(seedWords)]}
		if err := hs.Add(p); err != nil {
			return res, err
		}
	}
	if err := hs.Flush(600); err != nil {
		return res, err
	}
	before := hs.Stats().Pipeline

	var lats []time.Duration
	var latMu sync.Mutex
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	if measureP99 {
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				q := ksir.Query{K: 5, Keywords: []string{"goal", "dunk"}}
				for {
					select {
					case <-stopReaders:
						return
					default:
					}
					t0 := time.Now()
					if _, err := hs.Query(context.Background(), q); err != nil {
						return
					}
					d := time.Since(t0)
					latMu.Lock()
					lats = append(lats, d)
					latMu.Unlock()
					// Sample, don't saturate: a spinning reader on a
					// small host would benchmark the scheduler, not the
					// query path.
					time.Sleep(time.Millisecond)
				}
			}()
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var werrMu sync.Mutex
	var werr error
	start := time.Now()
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(n) {
					return
				}
				if err := hs.Add(ksir.Post{ID: i, Time: 700, Text: "goal striker derby dunk court"}); err != nil {
					werrMu.Lock()
					werr = err
					werrMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	close(stopReaders)
	readers.Wait()
	if werr != nil {
		return res, werr
	}
	after := hs.Stats().Pipeline
	if dOps := after.Ops - before.Ops; dOps > 0 {
		if dBatches := after.Batches - before.Batches; dBatches > 0 {
			res.batchSize = float64(dOps) / float64(dBatches)
		}
		res.fsyncsPerOp = float64(after.Fsyncs-before.Fsyncs) / float64(dOps)
	}
	if measureP99 && len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.p99 = lats[len(lats)*99/100]
	}
	return res, nil
}

// Ingest measures the writer pipeline (DESIGN.md §10): ingest throughput
// by fsync policy and producer count, with the realized commit-batch size
// and fsyncs per op. The headline cell is fsync=always at the highest
// producer count, where group commit amortizes one fsync over a whole
// commit batch; the mem/never/interval rows bound how much of the cost is
// the fsync itself. The headline cell also samples the p99 of queries
// issued concurrently with the saturated writer (queries are lock-free, so
// the pipeline must leave them untouched).
func (l *Lab) Ingest(producerCounts []int, n int) (*Table, []BenchEntry, error) {
	model, err := l.persistModel()
	if err != nil {
		return nil, nil, err
	}
	if len(producerCounts) == 0 {
		producerCounts = []int{1, 8, 64}
	}
	if n <= 0 {
		n = 4096
	}
	maxP := producerCounts[len(producerCounts)-1]

	t := &Table{
		Title:  "Writer pipeline: ingest throughput by fsync policy and producer count",
		Header: []string{"fsync", "producers", "posts/sec", "µs/post", "batch size", "fsyncs/op"},
		Notes: []string{
			fmt.Sprintf("%d posts per cell, one shared timestamp (pure writer path, no bucket boundary mid-run)", n),
			"batch size / fsyncs/op: realized pipeline coalescing at that concurrency",
			"mem = in-memory hub (no WAL): the writer path without any durability cost",
		},
	}
	var entries []BenchEntry
	for _, policy := range []string{"mem", "never", "interval", "always"} {
		for _, p := range producerCounts {
			headline := policy == "always" && p == maxP
			res, err := l.ingestCell(model, policy, p, n, headline)
			if err != nil {
				return nil, nil, err
			}
			perSec := float64(n) / res.wall.Seconds()
			usPerPost := float64(res.wall.Nanoseconds()) / float64(n) / 1e3
			t.AddRow(policy, fmt.Sprint(p),
				fmt.Sprintf("%.0f", perSec),
				fmt.Sprintf("%.1f", usPerPost),
				fmt.Sprintf("%.1f", res.batchSize),
				fmt.Sprintf("%.3f", res.fsyncsPerOp))
			suffix := fmt.Sprintf("-%s-p%d", policy, p)
			entries = append(entries,
				BenchEntry{Name: "ingest-pipelined" + suffix, Value: perSec, Unit: "posts/sec"},
				BenchEntry{Name: "ingest-us-per-post-pipelined" + suffix, Value: usPerPost, Unit: "Microseconds/post"},
			)
			if policy == "always" {
				entries = append(entries,
					BenchEntry{Name: "ingest-batch-size-pipelined" + suffix, Value: res.batchSize, Unit: "ops/batch",
						Extra: "realized mean commit-batch size"},
					BenchEntry{Name: "ingest-fsyncs-per-op-pipelined" + suffix, Value: res.fsyncsPerOp, Unit: "fsyncs/post"},
				)
			}
			if headline && res.p99 > 0 {
				entries = append(entries, BenchEntry{
					Name:  fmt.Sprintf("ingest-query-p99-pipelined-always-p%d", p),
					Value: float64(res.p99.Nanoseconds()) / 1e6, Unit: "Milliseconds",
					Extra: "query p99 concurrent with saturated pipelined ingest",
				})
			}
		}
	}
	return t, entries, nil
}
