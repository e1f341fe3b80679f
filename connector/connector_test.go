package connector_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	"github.com/social-streams/ksir/connector"
	"github.com/social-streams/ksir/connector/backoff"
)

// Fault-injection suite: every test drives a real Connector against the
// scriptable faultServer and asserts the resilience contract — reconnect
// with backoff, Last-Event-ID resume, bounded-buffer drop accounting, and
// zero duplicate ingest into the Hub. Run under -race in CI.

var (
	modelOnce sync.Once
	model     *ksir.Model
	modelErr  error
)

func testModel(t *testing.T) *ksir.Model {
	t.Helper()
	modelOnce.Do(func() {
		soccer := []string{"goal", "striker", "keeper", "league", "derby", "penalty"}
		basket := []string{"dunk", "rebound", "playoffs", "court", "buzzer", "triple"}
		rng := rand.New(rand.NewSource(7))
		texts := make([]string, 120)
		for i := range texts {
			words := soccer
			if i%2 == 1 {
				words = basket
			}
			var b []string
			for j := 0; j < 6; j++ {
				b = append(b, words[rng.Intn(len(words))])
			}
			texts[i] = strings.Join(b, " ")
		}
		model, modelErr = ksir.TrainModel(texts, ksir.WithTopics(2), ksir.WithIterations(30), ksir.WithSeed(1))
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func newTestStream(t *testing.T) *ksir.Stream {
	t.Helper()
	h := ksir.NewHub()
	t.Cleanup(func() { h.CloseAll() })
	hs, err := h.Create("firehose", testModel(t),
		ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 5})
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// fastBackoff keeps reconnect churn cheap and deterministic in tests.
var fastBackoff = backoff.Policy{Initial: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, Exact: true}

func newTestConnector(t *testing.T, url string, hs *ksir.Stream, mutate ...func(*connector.Config)) *connector.Connector {
	t.Helper()
	cfg := connector.Config{
		URL:           url,
		Backoff:       fastBackoff,
		MaxEventBytes: 4096,
		BatchWindow:   5 * time.Millisecond,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := connector.New(cfg, hs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runConnector starts c.Run and returns a stop func that cancels it and
// waits for a clean exit (so -race sees every goroutine finish).
func runConnector(t *testing.T, c *connector.Connector) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("connector did not stop")
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// flushedElements closes the open bucket and returns the stream's total
// ingested element count — the ground truth for duplicate detection.
func flushedElements(t *testing.T, hs *ksir.Stream) int64 {
	t.Helper()
	if err := hs.Flush(faultPostTime + 120); err != nil {
		t.Fatal(err)
	}
	return hs.Stats().Elements
}

func TestConnectorIngestsFirehose(t *testing.T) {
	const total = 50
	fs := newFaultServer(t, total) // default plan: send all, hold open
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs)
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Events != total || st.Dropped != 0 || st.Malformed != 0 || st.Duplicates != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want %d clean events", st, total)
	}
	if st.LastEventID != "50" {
		t.Errorf("cursor = %q, want 50", st.LastEventID)
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d", got, total)
	}
}

func TestReconnectResumesWithoutDuplicates(t *testing.T) {
	const total = 200
	fs := newFaultServer(t, total,
		connPlan{send: 80},                 // dies after 80
		connPlan{send: 70, replayBack: 10}, // resumes, replaying 71..80
		connPlan{send: -1, replayBack: 5, hold: true},
	)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs)
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Duplicates != 15 {
		t.Errorf("duplicates = %d, want 15 (10+5 replayed)", st.Duplicates)
	}
	if st.Rejected != 0 {
		t.Errorf("rejected = %d: a replayed event reached the stream", st.Rejected)
	}
	if st.Reconnects < 2 {
		t.Errorf("reconnects = %d, want ≥ 2", st.Reconnects)
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d (duplicate ingest?)", got, total)
	}
	cursors := fs.resumeCursors()
	if len(cursors) < 3 || cursors[1] != 80 {
		t.Errorf("resume cursors = %v, want second connection to resume from 80", cursors)
	}
}

func TestDedupeOverflowFallsBackToStreamRejection(t *testing.T) {
	// A dedupe window smaller than the replay overlap: the connector-side
	// filter misses the replays, and the stream's in-window duplicate
	// rejection is the second line of defense — still zero double-ingest.
	const total = 60
	fs := newFaultServer(t, total,
		connPlan{send: 40},
		connPlan{send: -1, replayBack: 10, hold: true},
	)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs, func(cfg *connector.Config) {
		cfg.DedupeWindow = 4
	})
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Duplicates+st.Rejected != 10 {
		t.Errorf("duplicates %d + rejected %d = %d, want 10 replays suppressed",
			st.Duplicates, st.Rejected, st.Duplicates+st.Rejected)
	}
	if st.Rejected == 0 {
		t.Error("rejected = 0: expected the tiny dedupe window to leak replays to the stream")
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d (duplicate ingest?)", got, total)
	}
}

func TestTruncatedFrameIsRedelivered(t *testing.T) {
	const total = 20
	fs := newFaultServer(t, total,
		connPlan{send: 10, truncate: true}, // frame 11 cut mid-JSON
		connPlan{send: -1, hold: true},
	)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs)
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Malformed != 0 || st.Duplicates != 0 {
		t.Errorf("stats = %+v: the truncated frame must not count as malformed nor duplicate", st)
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d", got, total)
	}
	if cursors := fs.resumeCursors(); len(cursors) < 2 || cursors[1] != 10 {
		// The cursor must not advance past the truncated frame.
		t.Errorf("resume cursors = %v, want second connection from 10", cursors)
	}
}

func TestStallMidEventThenRecover(t *testing.T) {
	const total = 10
	fs := newFaultServer(t, total,
		connPlan{send: 5, stall: true}, // half an event, then silence
		connPlan{send: -1, hold: true},
	)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs)
	stop := runConnector(t, c)

	// While the upstream stalls mid-event, exactly the complete frames
	// are delivered — the partial one is neither ingested nor counted.
	waitFor(t, "first five posts", func() bool { return c.Stats().Ingested == 5 })
	time.Sleep(20 * time.Millisecond)
	if st := c.Stats(); st.Events != 5 || st.Ingested != 5 {
		t.Errorf("during stall: %+v, want exactly 5 events", st)
	}

	fs.releaseAll() // upstream closes the stalled connection
	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()

	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d", got, total)
	}
	if st := c.Stats(); st.Duplicates != 0 || st.Rejected != 0 {
		t.Errorf("stats after recovery = %+v, want no duplicates", st)
	}
}

func TestCloseBurstBacksOffAndRecovers(t *testing.T) {
	const total = 30
	plans := make([]connPlan, 10) // ten immediate closes: send 0, drop
	fs := newFaultServer(t, total, append(plans, connPlan{send: -1, hold: true})...)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs)
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Reconnects < 10 {
		t.Errorf("reconnects = %d, want ≥ 10 across the close burst", st.Reconnects)
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d", got, total)
	}
}

func TestMalformedAndOversizedSkippedInStream(t *testing.T) {
	const total = 20
	fs := newFaultServer(t, total,
		connPlan{send: -1, malformed: 3, oversized: 2, hold: true},
	)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs, func(cfg *connector.Config) {
		cfg.MaxEventBytes = 256 // faultServer's oversized frames are 64 KiB
	})
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Malformed != 3 {
		t.Errorf("malformed = %d, want 3", st.Malformed)
	}
	if st.Oversized != 2 {
		t.Errorf("oversized = %d, want 2", st.Oversized)
	}
	if fs.connCount() != 1 {
		t.Errorf("connections = %d: bad frames must be skipped without reconnecting", fs.connCount())
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d", got, total)
	}
}

func TestResumeGapIsCounted(t *testing.T) {
	const total = 30
	fs := newFaultServer(t, total,
		connPlan{send: 10},
		connPlan{send: -1, skip: 5, hold: true}, // upstream lost 11..15
	)
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs)
	stop := runConnector(t, c)

	waitFor(t, "remaining posts ingested", func() bool { return c.Stats().Ingested == total-5 })
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.ResumeGaps != 1 || st.ResumeMissed != 5 {
		t.Errorf("resume gaps = %d missed = %d, want 1 gap of 5", st.ResumeGaps, st.ResumeMissed)
	}
}

func TestBoundedBufferDropsOldestWithAccounting(t *testing.T) {
	const total = 400
	fs := newFaultServer(t, total, connPlan{send: -1, hold: true})
	hs := newTestStream(t)
	c := newTestConnector(t, fs.url(), hs, func(cfg *connector.Config) {
		cfg.Buffer = 4
		cfg.MaxBatch = 8
		cfg.Map = func(ev connector.Event) (ksir.Post, error) {
			time.Sleep(time.Millisecond) // slow consumer forces buffer pressure
			return connector.DecodePost(ev)
		}
	})
	stop := runConnector(t, c)

	waitFor(t, "every event accounted for", func() bool {
		st := c.Stats()
		return st.Events == total && st.Ingested+st.Dropped == total
	})
	stop()
	fs.releaseAll()

	st := c.Stats()
	if st.Dropped == 0 {
		t.Error("dropped = 0: slow consumer over a 4-slot buffer must shed events")
	}
	if st.Ingested+st.Dropped != st.Events {
		t.Errorf("conservation violated: ingested %d + dropped %d != events %d",
			st.Ingested, st.Dropped, st.Events)
	}
	if got := flushedElements(t, hs); got != st.Ingested {
		t.Errorf("stream elements = %d, want %d (exactly the non-dropped events)", got, st.Ingested)
	}
}

func TestJSONLFirehose(t *testing.T) {
	const total = 30
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		fmt.Fprintf(w, "{not json}\n")                    // malformed
		fmt.Fprintf(w, "%s\n", strings.Repeat("y", 8192)) // oversized
		for id := int64(1); id <= total; id++ {
			fmt.Fprintf(w, "%s\n", postJSON(id))
		}
		fl.Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)

	hs := newTestStream(t)
	c := newTestConnector(t, srv.URL, hs, func(cfg *connector.Config) {
		cfg.Format = connector.JSONL
		cfg.MaxEventBytes = 4096
	})
	stop := runConnector(t, c)

	waitFor(t, "all posts ingested", func() bool { return c.Stats().Ingested == total })
	stop()

	st := c.Stats()
	if st.Malformed != 1 || st.Oversized != 1 {
		t.Errorf("malformed = %d oversized = %d, want 1 and 1", st.Malformed, st.Oversized)
	}
	if got := flushedElements(t, hs); got != total {
		t.Errorf("stream elements = %d, want %d", got, total)
	}
}
