package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	ksir "github.com/social-streams/ksir"
	"github.com/social-streams/ksir/internal/loadgen"
)

// loadSeedPosts pre-seeds each stream with flushed history so query ops
// in the mixed cell read a published snapshot, mirroring ingestCell.
const loadSeedPosts = 64

// loadCellResult is one latency-under-load cell.
type loadCellResult struct {
	p50, p99    time.Duration // open-loop completion latency, from scheduled send
	maxLag      time.Duration // worst generator dispatch lag (harness health)
	fsyncsPerOp float64
	batchSize   float64
	realized    float64 // realized ops/sec over the run
	errors      int64
}

// loadAddCell drives one open-loop add workload: n posts scheduled by the
// arrival shape at the target rate against an FsyncAlways hub. Latency is
// measured from each post's scheduled send time, so queueing during
// saturation or fsync stalls is in the percentiles — the measurement
// closed-loop producers cannot make.
func (l *Lab) loadAddCell(model *ksir.Model, shape loadgen.Shape, rate float64, n int) (loadCellResult, error) {
	var res loadCellResult
	dir, err := os.MkdirTemp("", "ksir-load-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	hub, err := ksir.OpenHub(dir, model, ksir.PersistOptions{
		Fsync: ksir.FsyncAlways, CheckpointEvery: 1 << 30,
	})
	if err != nil {
		return res, err
	}
	defer hub.CloseAll()
	hs, err := hub.Create("bench", model, persistStreamOpts)
	if err != nil {
		return res, err
	}
	before := hs.Stats().Pipeline

	offsets := loadgen.Offsets(shape, n, rate, l.scale.Seed)
	run := loadgen.Run(context.Background(), offsets, func(ctx context.Context, i int) error {
		// One shared timestamp: acceptance never depends on completion
		// interleaving and no bucket boundary crosses the measurement.
		return hs.Add(ksir.Post{ID: int64(i + 1), Time: 700, Text: "goal striker derby dunk court"})
	})

	after := hs.Stats().Pipeline
	if dOps := after.Ops - before.Ops; dOps > 0 {
		if dBatches := after.Batches - before.Batches; dBatches > 0 {
			res.batchSize = float64(dOps) / float64(dBatches)
		}
		res.fsyncsPerOp = float64(after.Fsyncs-before.Fsyncs) / float64(dOps)
	}
	res.p50 = loadgen.Percentile(run.Latency, 50)
	res.p99 = loadgen.Percentile(run.Latency, 99)
	res.maxLag = run.MaxLag
	res.errors = run.Errors
	if run.Elapsed > 0 {
		res.realized = float64(len(run.Latency)) / run.Elapsed.Seconds()
	}
	return res, nil
}

// loadMixedResult is the mixed-workload cell: a tenant-skewed op mix over
// many streams.
type loadMixedResult struct {
	addP99, queryP99 time.Duration
	churns           int
	errors           int64
}

// loadMixedCell drives a Poisson mix over `streams` streams with zipfian
// tenant skew: ~80% adds, ~15% queries (a query storm against hot
// snapshots), ~5% subscription churn (subscribe + immediate unsubscribe).
// Every op kind is measured from scheduled send time; the cell answers
// whether a realistic multi-tenant mix keeps read latency flat while the
// writer pipeline absorbs the skewed add load.
func (l *Lab) loadMixedCell(model *ksir.Model, streams, n int, rate float64) (loadMixedResult, error) {
	var res loadMixedResult
	dir, err := os.MkdirTemp("", "ksir-load-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	hub, err := ksir.OpenHub(dir, model, ksir.PersistOptions{
		Fsync: ksir.FsyncAlways, CheckpointEvery: 1 << 30,
	})
	if err != nil {
		return res, err
	}
	defer hub.CloseAll()

	handles := make([]*ksir.StreamHandle, streams)
	seedWords := []string{"goal striker keeper", "dunk rebound playoffs", "league derby penalty", "court buzzer triple"}
	for s := range handles {
		hs, err := hub.Create(fmt.Sprintf("tenant-%03d", s), model, persistStreamOpts)
		if err != nil {
			return res, err
		}
		for i := 0; i < loadSeedPosts; i++ {
			p := ksir.Post{ID: int64(1_000_000 + i), Time: int64(60 + 4*i), Text: seedWords[i%len(seedWords)]}
			if err := hs.Add(p); err != nil {
				return res, err
			}
		}
		if err := hs.Flush(600); err != nil {
			return res, err
		}
		handles[s] = hs
	}

	// Precompute the op plan (kind, stream, post id) so the hot path does
	// no rng work and per-stream post ids stay unique without atomics.
	const (
		opAdd = iota
		opQuery
		opChurn
	)
	rng := rand.New(rand.NewSource(l.scale.Seed + 9))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(streams-1))
	kinds := make([]int, n)
	streamOf := make([]int, n)
	ids := make([]int64, n)
	nextID := make([]int64, streams)
	for i := 0; i < n; i++ {
		s := int(zipf.Uint64())
		streamOf[i] = s
		switch r := rng.Float64(); {
		case r < 0.80:
			kinds[i] = opAdd
			nextID[s]++
			ids[i] = nextID[s]
		case r < 0.95:
			kinds[i] = opQuery
		default:
			kinds[i] = opChurn
			res.churns++
		}
	}

	query := ksir.Query{K: 5, Keywords: []string{"goal", "dunk"}}
	offsets := loadgen.Offsets(loadgen.Poisson, n, rate, l.scale.Seed)
	var subMu sync.Mutex // Subscribe/Unsubscribe pairs from many goroutines
	run := loadgen.Run(context.Background(), offsets, func(ctx context.Context, i int) error {
		hs := handles[streamOf[i]]
		switch kinds[i] {
		case opAdd:
			return hs.Add(ksir.Post{ID: ids[i], Time: 700, Text: "goal striker derby dunk court"})
		case opQuery:
			_, err := hs.Query(ctx, query)
			return err
		default:
			subMu.Lock()
			defer subMu.Unlock()
			sub, err := hs.Subscribe(ctx, query, time.Minute, func(ksir.Result) {})
			if err != nil {
				return err
			}
			hs.Unsubscribe(sub)
			return nil
		}
	})

	var addLat, queryLat []time.Duration
	for i, lat := range run.Latency {
		switch kinds[i] {
		case opAdd:
			addLat = append(addLat, lat)
		case opQuery:
			queryLat = append(queryLat, lat)
		}
	}
	res.addP99 = loadgen.Percentile(addLat, 99)
	res.queryP99 = loadgen.Percentile(queryLat, 99)
	res.errors = run.Errors
	return res, nil
}

// Load measures latency under open-loop load (DESIGN.md §14): the
// latency-under-load frontier of the writer pipeline across target rates
// and arrival shapes, plus one tenant-skewed mixed workload over many
// streams. perCellSecs sizes each
// cell's schedule (n = rate × perCellSecs, floored at 256 ops).
func (l *Lab) Load(rates []float64, perCellSecs float64, mixedStreams int) (*Table, []BenchEntry, error) {
	model, err := l.persistModel()
	if err != nil {
		return nil, nil, err
	}
	if len(rates) == 0 {
		rates = []float64{500, 1000, 2000}
	}
	if perCellSecs <= 0 {
		perCellSecs = 2
	}
	if mixedStreams <= 0 {
		mixedStreams = 16
	}

	t := &Table{
		Title: "Open-loop latency under load: arrival shape × target rate",
		Header: []string{"shape", "rate/s", "realized/s", "p50 ms", "p99 ms",
			"fsyncs/op", "batch", "gen lag ms"},
		Notes: []string{
			"latency measured from each op's *scheduled* send time (coordinated-omission-free): queueing during stalls is in the percentiles",
			"fsync=always throughout",
			"bursty = on/off bursts at 10× the nominal rate with rate-preserving idle gaps — the group-commit stress shape",
			"gen lag = worst generator dispatch lag behind schedule; ms-scale values mean the harness itself saturated, not the server",
		},
	}
	var entries []BenchEntry
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	for _, shape := range []loadgen.Shape{loadgen.Poisson, loadgen.Bursty} {
		for _, rate := range rates {
			n := int(rate * perCellSecs)
			if n < 256 {
				n = 256
			}
			res, err := l.loadAddCell(model, shape, rate, n)
			if err != nil {
				return nil, nil, err
			}
			if res.errors > 0 {
				return nil, nil, fmt.Errorf("load cell %v r=%.0f: %d op errors", shape, rate, res.errors)
			}
			suffix := fmt.Sprintf("-%s-r%.0f", shape, rate)
			t.AddRow(shape.String(), fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.0f", res.realized),
				fmt.Sprintf("%.2f", ms(res.p50)),
				fmt.Sprintf("%.2f", ms(res.p99)),
				fmt.Sprintf("%.3f", res.fsyncsPerOp),
				fmt.Sprintf("%.1f", res.batchSize),
				fmt.Sprintf("%.2f", ms(res.maxLag)))
			entries = append(entries,
				BenchEntry{Name: "load-add-p50-ms" + suffix, Value: ms(res.p50), Unit: "Milliseconds",
					Extra: "open-loop add latency from scheduled send, p50"},
				BenchEntry{Name: "load-add-p99-ms" + suffix, Value: ms(res.p99), Unit: "Milliseconds",
					Extra: "open-loop add latency from scheduled send, p99"},
				BenchEntry{Name: "load-fsyncs-per-op" + suffix, Value: res.fsyncsPerOp, Unit: "fsyncs/post"},
			)
		}
	}

	// The mixed cell runs at the middle rate.
	mixedRate := rates[len(rates)/2]
	n := int(mixedRate * perCellSecs)
	if n < 256 {
		n = 256
	}
	mixed, err := l.loadMixedCell(model, mixedStreams, n, mixedRate)
	if err != nil {
		return nil, nil, err
	}
	if mixed.errors > 0 {
		return nil, nil, fmt.Errorf("load mixed cell: %d op errors", mixed.errors)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mixed cell: %d streams, zipf tenant skew, ~80%%/15%%/5%% add/query/churn at %.0f/s poisson: add p99 %.2fms, query p99 %.2fms, %d subscription churns",
		mixedStreams, mixedRate, ms(mixed.addP99), ms(mixed.queryP99), mixed.churns))
	entries = append(entries,
		BenchEntry{Name: "load-mixed-add-p99-ms", Value: ms(mixed.addP99), Unit: "Milliseconds",
			Extra: fmt.Sprintf("add p99 in the %d-stream zipf-skewed mixed workload", mixedStreams)},
		BenchEntry{Name: "load-mixed-query-p99-ms", Value: ms(mixed.queryP99), Unit: "Milliseconds",
			Extra: "query p99 concurrent with skewed adds and subscription churn"},
	)
	return t, entries, nil
}
