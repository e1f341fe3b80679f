package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
)

func smallEnv(t *testing.T) *Env {
	t.Helper()
	lab := NewLab(Scale{Elements: 1500, Queries: 10, TopicIters: 8, Seed: 5, WindowHours: 24})
	env, err := lab.Env("Twitter", 20)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// The cycler must emit an endless, engine-valid stream: strictly advancing
// bucket boundaries, in-bucket timestamps and globally unique IDs — the
// engine's own validation is the oracle.
func TestBucketCyclerFeedsEngineAcrossCycles(t *testing.T) {
	env := smallEnv(t)
	cyc, err := NewBucketCycler(env, env.BucketL*BucketScale)
	if err != nil {
		t.Fatal(err)
	}
	g, err := env.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[stream.ElemID]struct{})
	var prevNow stream.Time
	total := cyc.BucketsPerCycle()*2 + cyc.BucketsPerCycle()/2 // 2.5 cycles
	for i := 0; i < total; i++ {
		now, batch := cyc.Next()
		if now <= prevNow && len(batch) > 0 {
			t.Fatalf("bucket %d: boundary %d did not advance past %d", i, now, prevNow)
		}
		prevNow = now
		for _, e := range batch {
			if _, dup := seen[e.ID]; dup {
				t.Fatalf("bucket %d: duplicate ID %d across cycles", i, e.ID)
			}
			seen[e.ID] = struct{}{}
		}
		if err := g.Ingest(now, batch); err != nil {
			t.Fatalf("bucket %d rejected: %v", i, err)
		}
	}
	if g.NumActive() == 0 {
		t.Fatal("window empty after 2.5 cycles")
	}
}

// A small run must complete and report sane statistics.
func TestRunConcurrentSmoke(t *testing.T) {
	st, err := RunConcurrent(smallEnv(t), 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 30 {
		t.Errorf("completed %d queries, want 30", st.Queries)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Errorf("implausible percentiles p50=%v p99=%v", st.P50, st.P99)
	}
	if st.Buckets == 0 || st.QPS <= 0 {
		t.Errorf("writer made no progress: %+v", st)
	}
}

func TestWriteBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	in := []BenchEntry{
		{Name: "p99-snapshot", Value: 1.25, Unit: "Milliseconds", Extra: "P99"},
		{Name: "qps", Value: 800, Unit: "QPS"},
	}
	if err := WriteBenchJSON(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []BenchEntry
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, raw)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
}
