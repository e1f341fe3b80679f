package ksir

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchModel caches one trained model across the persistence benchmarks
// (training dominates setup otherwise).
var benchModelOnce struct {
	m   *Model
	err error
}

func benchPersistModel(b *testing.B) *Model {
	b.Helper()
	if benchModelOnce.m == nil && benchModelOnce.err == nil {
		benchModelOnce.m, benchModelOnce.err = TrainModel(corpus(200),
			WithTopics(2), WithIterations(40), WithSeed(1), WithPriors(0.5, 0.01))
	}
	if benchModelOnce.err != nil {
		b.Fatal(benchModelOnce.err)
	}
	return benchModelOnce.m
}

func benchPosts(n int) []Post {
	return genPosts(n, 7)
}

// BenchmarkWALAppend measures the durability overhead on the ingest hot
// path: one accepted post = one in-memory Add + one WAL record, under
// each fsync policy, with the in-memory hub as the zero-overhead
// baseline, from 1, 8 and 64 concurrent producers. (fsync=always is
// bounded by the device's flush latency from one producer; from several,
// group commit shares one fsync across a commit batch — batch-size > 1 and
// fsyncs/op < 1 are the writer pipeline doing its job. The other policies
// should track the baseline closely.)
//
// Every post carries one shared timestamp, so acceptance never depends on
// how the producers interleave and no bucket boundary crosses the
// measurement: the cell isolates tokenize + infer + pend + WAL.
func BenchmarkWALAppend(b *testing.B) {
	model := benchPersistModel(b)
	opts := Options{Window: time.Hour, Bucket: time.Minute, Eta: 5}
	run := func(b *testing.B, hub *Hub, producers int) {
		b.Helper()
		defer hub.CloseAll()
		hs, err := hub.Create("bench", model, opts)
		if err != nil {
			b.Fatal(err)
		}
		posts := benchPosts(2048)
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					p := posts[i%int64(len(posts))]
					p.ID, p.Time = i, 700
					if err := hs.Add(p); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		pipe := hs.Stats().Pipeline
		b.ReportMetric(pipe.MeanBatchSize(), "batch-size")
		b.ReportMetric(pipe.FsyncsPerOp(), "fsyncs/op")
	}
	producerCounts := []int{1, 8, 64}
	for _, producers := range producerCounts {
		b.Run(fmt.Sprintf("baseline-memory/producers=%d", producers), func(b *testing.B) {
			run(b, NewHub(), producers)
		})
	}
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		for _, producers := range producerCounts {
			b.Run(fmt.Sprintf("fsync-%s/producers=%d", policy, producers), func(b *testing.B) {
				hub, err := OpenHub(b.TempDir(), model, PersistOptions{Fsync: policy})
				if err != nil {
					b.Fatal(err)
				}
				run(b, hub, producers)
			})
		}
	}
}

// BenchmarkRecovery measures OpenHub over a crashed directory, by window
// size: checkpoint-restore time scales with the live state, WAL-tail
// replay with the records since the last checkpoint.
func BenchmarkRecovery(b *testing.B) {
	model := benchPersistModel(b)
	opts := Options{Window: time.Hour, Bucket: time.Minute, Eta: 5}
	for _, n := range []int{500, 2000, 8000} {
		for _, mode := range []string{"wal-only", "checkpointed"} {
			b.Run(fmt.Sprintf("%s/elements=%d", mode, n), func(b *testing.B) {
				dir := b.TempDir()
				po := PersistOptions{Fsync: FsyncNever, CheckpointEvery: 1 << 30}
				hub, err := OpenHub(dir, model, po)
				if err != nil {
					b.Fatal(err)
				}
				hs, err := hub.Create("bench", model, opts)
				if err != nil {
					b.Fatal(err)
				}
				for i, p := range benchPosts(n) {
					p.ID = int64(i + 1)
					if err := hs.Add(p); err != nil {
						b.Fatal(err)
					}
				}
				if mode == "checkpointed" {
					if _, err := hs.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				// Crash: the hub is abandoned, not closed.
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h2, err := OpenHub(dir, model, po)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					hs2, err := h2.Get("bench")
					if err != nil || hs2.Stats().Elements == 0 {
						b.Fatalf("recovery lost the stream: %v", err)
					}
					// Release the WAL handle without Close's final
					// checkpoint: the directory must stay byte-identical
					// for the next iteration.
					_ = hs2.pers.releaseWAL()
					b.StartTimer()
				}
			})
		}
	}
}
