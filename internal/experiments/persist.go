package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	ksir "github.com/social-streams/ksir"
)

// persistModel trains (once per Lab) the small model the durability
// experiment ingests against; the durability numbers measure the WAL and
// checkpoint machinery, not topic inference, so a compact two-topic model
// keeps the experiment fast without changing what is measured.
func (l *Lab) persistModel() (*ksir.Model, error) {
	if l.persistM != nil {
		return l.persistM, nil
	}
	words := [][]string{
		{"goal", "striker", "keeper", "league", "derby", "penalty", "midfield", "champions"},
		{"dunk", "rebound", "playoffs", "court", "buzzer", "triple", "assist", "quarter"},
	}
	rng := rand.New(rand.NewSource(l.scale.Seed))
	texts := make([]string, 400)
	for i := range texts {
		ws := words[i%2]
		var b []string
		for j := 0; j < 6; j++ {
			b = append(b, ws[rng.Intn(len(ws))])
		}
		texts[i] = strings.Join(b, " ")
	}
	m, err := ksir.TrainModel(texts, ksir.WithTopics(2),
		ksir.WithIterations(l.scale.TopicIters), ksir.WithSeed(l.scale.Seed),
		ksir.WithPriors(0.5, 0.01))
	if err != nil {
		return nil, err
	}
	l.persistM = m
	return m, nil
}

// persistPosts generates n posts over the persist model's vocabulary with
// reference chains and bucket-crossing timestamps.
func persistPosts(n int, seed int64) []ksir.Post {
	words := []string{"goal", "striker", "keeper", "league", "derby", "penalty",
		"dunk", "rebound", "playoffs", "court", "buzzer", "triple"}
	rng := rand.New(rand.NewSource(seed))
	posts := make([]ksir.Post, n)
	ts := int64(60)
	for i := range posts {
		ts += int64(rng.Intn(8))
		var b []string
		for w := 0; w < 5; w++ {
			b = append(b, words[rng.Intn(len(words))])
		}
		p := ksir.Post{ID: int64(i + 1), Time: ts, Text: strings.Join(b, " ")}
		for r := 0; r < rng.Intn(3) && i > 0; r++ {
			p.Refs = append(p.Refs, int64(1+rng.Intn(i)))
		}
		posts[i] = p
	}
	return posts
}

var persistStreamOpts = ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 5}

// persistCheckpointGap is how many posts the lifetime rows ingest between
// the restore and the checkpoint they time: 64 buckets' worth, the default
// checkpoint interval, at persistPosts' 3.5 s a post.
const persistCheckpointGap = 1100

// fileSize returns the size of the file at path, 0 if there is none.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// persistIngest feeds posts through a handle and returns the wall time.
func persistIngest(hs *ksir.StreamHandle, posts []ksir.Post) (time.Duration, error) {
	start := time.Now()
	for _, p := range posts {
		if err := hs.Add(p); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Persist measures the durability subsystem (DESIGN.md §8): WAL append
// overhead on the ingest path under each fsync policy (the in-memory hub
// is the zero-overhead baseline), crash-recovery time by stream size for
// WAL-only replay vs checkpoint restore, and what one more checkpoint
// costs at that point of the stream's life. The sizes are lifetimes: the
// window holds about a thousand posts, so the default sweep is a stream 1,
// 4 and 16 windows old, and a checkpoint that scales with the live state
// rather than the history writes the same bytes in the same time on every
// row.
func (l *Lab) Persist(sizes []int) (*Table, []BenchEntry, error) {
	model, err := l.persistModel()
	if err != nil {
		return nil, nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{1000, 4000, 16000}
	}
	t := &Table{
		Title:  "Durability: WAL append overhead, recovery time and checkpoint cost vs stream lifetime",
		Header: []string{"elements", "lifetime (windows)", "ingest mem (ms)", "wal never (ms)", "wal interval (ms)", "wal always (ms)", "recover wal (ms)", "recover ckpt (ms)", "active", "next ckpt (ms)", "next ckpt (KB)"},
		Notes: []string{
			"ingest columns: same posts through an in-memory hub vs durable hubs per fsync policy",
			"recover columns: OpenHub after an unclean stop — full WAL replay vs checkpoint restore + empty WAL",
			fmt.Sprintf("next ckpt columns: one checkpoint after %d more posts (about a default checkpoint interval) — time, and head + element-log bytes written", persistCheckpointGap),
		},
	}
	var entries []BenchEntry

	for _, n := range sizes {
		timeline := persistPosts(n+persistCheckpointGap, l.scale.Seed)
		posts, gap := timeline[:n], timeline[n:]
		lifetime := float64(posts[n-1].Time-posts[0].Time) / persistStreamOpts.Window.Seconds()

		// Baseline: no persistence.
		hub := ksir.NewHub()
		hs, err := hub.Create("bench", model, persistStreamOpts)
		if err != nil {
			return nil, nil, err
		}
		base, err := persistIngest(hs, posts)
		if err != nil {
			return nil, nil, err
		}

		// Durable ingest per fsync policy (fsync=never's directory is
		// reused for the recovery measurements below).
		ingest := map[ksir.FsyncPolicy]time.Duration{}
		var walDir string
		for _, policy := range []ksir.FsyncPolicy{ksir.FsyncNever, ksir.FsyncInterval, ksir.FsyncAlways} {
			dir, err := os.MkdirTemp("", "ksir-persist-*")
			if err != nil {
				return nil, nil, err
			}
			defer os.RemoveAll(dir)
			// CheckpointEvery is pushed out of reach so the ingest numbers
			// measure pure WAL appends and recovery replays every record.
			dhub, err := ksir.OpenHub(dir, model, ksir.PersistOptions{Fsync: policy, CheckpointEvery: 1 << 30})
			if err != nil {
				return nil, nil, err
			}
			dhs, err := dhub.Create("bench", model, persistStreamOpts)
			if err != nil {
				return nil, nil, err
			}
			ingest[policy], err = persistIngest(dhs, posts)
			if err != nil {
				return nil, nil, err
			}
			if policy == ksir.FsyncNever {
				walDir = dir // abandoned un-closed: the crash image
			} else if err := dhub.CloseAll(); err != nil {
				return nil, nil, err
			}
		}

		// Recovery from the crash image: WAL-only replay...
		startWAL := time.Now()
		rhub, err := ksir.OpenHub(walDir, model, ksir.PersistOptions{Fsync: ksir.FsyncNever})
		if err != nil {
			return nil, nil, err
		}
		recoverWAL := time.Since(startWAL)
		rhs, err := rhub.Get("bench")
		if err != nil {
			return nil, nil, err
		}
		// ...then checkpoint it and measure the restore path.
		if _, err := rhs.Checkpoint(); err != nil {
			return nil, nil, err
		}
		if err := rhub.CloseAll(); err != nil {
			return nil, nil, err
		}
		startCkpt := time.Now()
		chub, err := ksir.OpenHub(walDir, model, ksir.PersistOptions{Fsync: ksir.FsyncNever, CheckpointEvery: 1 << 30})
		if err != nil {
			return nil, nil, err
		}
		recoverCkpt := time.Since(startCkpt)
		// One more checkpoint interval of traffic, then the checkpoint a
		// stream this old takes next.
		chs, err := chub.Get("bench")
		if err != nil {
			return nil, nil, err
		}
		if _, err := persistIngest(chs, gap); err != nil {
			return nil, nil, err
		}
		sdir := filepath.Join(walDir, "bench")
		logBefore := fileSize(filepath.Join(sdir, "elements"))
		startNext := time.Now()
		if _, err := chs.Checkpoint(); err != nil {
			return nil, nil, err
		}
		nextCkpt := time.Since(startNext)
		active := chs.Stats().Active
		nextBytes := fileSize(filepath.Join(sdir, "checkpoint")) + fileSize(filepath.Join(sdir, "elements")) - logBefore
		if err := chub.CloseAll(); err != nil {
			return nil, nil, err
		}

		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.1f", lifetime),
			fmtMS(float64(base.Nanoseconds())),
			fmtMS(float64(ingest[ksir.FsyncNever].Nanoseconds())),
			fmtMS(float64(ingest[ksir.FsyncInterval].Nanoseconds())),
			fmtMS(float64(ingest[ksir.FsyncAlways].Nanoseconds())),
			fmtMS(float64(recoverWAL.Nanoseconds())),
			fmtMS(float64(recoverCkpt.Nanoseconds())),
			fmt.Sprint(active),
			fmtMS(float64(nextCkpt.Nanoseconds())),
			fmt.Sprintf("%.1f", float64(nextBytes)/1024))
		suffix := fmt.Sprintf("-n%d", n)
		perPost := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) / 1e3 }
		entries = append(entries,
			BenchEntry{Name: "persist-ingest-baseline" + suffix, Value: perPost(base), Unit: "Microseconds/post"},
			BenchEntry{Name: "persist-ingest-fsync-never" + suffix, Value: perPost(ingest[ksir.FsyncNever]), Unit: "Microseconds/post"},
			BenchEntry{Name: "persist-ingest-fsync-interval" + suffix, Value: perPost(ingest[ksir.FsyncInterval]), Unit: "Microseconds/post"},
			BenchEntry{Name: "persist-ingest-fsync-always" + suffix, Value: perPost(ingest[ksir.FsyncAlways]), Unit: "Microseconds/post"},
			BenchEntry{Name: "persist-recovery-wal" + suffix, Value: float64(recoverWAL.Nanoseconds()) / 1e6, Unit: "Milliseconds"},
			BenchEntry{Name: "persist-recovery-checkpoint" + suffix, Value: float64(recoverCkpt.Nanoseconds()) / 1e6, Unit: "Milliseconds"},
			BenchEntry{Name: "persist-next-checkpoint-ms" + suffix, Value: float64(nextCkpt.Nanoseconds()) / 1e6, Unit: "Milliseconds",
				Extra: fmt.Sprintf("stream %.1f windows old, %d posts since its last checkpoint", lifetime, persistCheckpointGap)},
			BenchEntry{Name: "persist-next-checkpoint-bytes" + suffix, Value: float64(nextBytes), Unit: "Bytes",
				Extra: fmt.Sprintf("head + element-log bytes that checkpoint wrote, %d elements active", active)},
		)
	}
	if len(sizes) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("sizes swept: %v (override with -elements)", sizes))
	}
	return t, entries, nil
}
