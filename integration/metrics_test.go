// Package integration exercises the full wire surface of a durable
// ksir-server deployment the way an operator's tooling would: the Go SDK
// drives the lifecycle (ingest, query, checkpoint, hibernate, recover) and
// a Prometheus-style scraper reads /metrics between steps, asserting the
// exposition stays well-formed and every counter family monotone.
package integration

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/internal/metrics"
	"github.com/social-streams/ksir/internal/server"
)

// metricFamilies is every family the observability subsystem exports
// (DESIGN.md §12), with its TYPE. The test fails when a family disappears
// from the scrape or changes type — the exposition is a wire contract.
var metricFamilies = map[string]string{
	"ksir_engine_elements_ingested_total": "counter",
	"ksir_engine_buckets_total":           "counter",
	"ksir_engine_update_seconds_total":    "counter",
	"ksir_engine_replay_seconds_total":    "counter",
	"ksir_engine_query_duration_seconds":  "histogram",
	"ksir_engine_query_evaluated_ratio":   "histogram",
	"ksir_engine_query_retrieved":         "histogram",
	"ksir_engine_query_gain_evals":        "histogram",
	"ksir_engine_snapshot_pins":           "gauge",

	"ksir_pipeline_ops_total":               "counter",
	"ksir_pipeline_commit_batches_total":    "counter",
	"ksir_pipeline_commit_duration_seconds": "histogram",
	"ksir_pipeline_batch_size":              "histogram",

	"ksir_wal_appends_total":           "counter",
	"ksir_wal_appended_bytes_total":    "counter",
	"ksir_wal_append_duration_seconds": "histogram",
	"ksir_wal_fsyncs_total":            "counter",
	"ksir_wal_fsync_duration_seconds":  "histogram",
	"ksir_wal_replay_seconds_total":    "counter",
	"ksir_wal_failures_total":          "counter",
	"ksir_element_log_reads_total":     "counter",
	"ksir_checkpoints_total":           "counter",
	"ksir_checkpoint_bytes_total":      "counter",
	"ksir_checkpoint_duration_seconds": "histogram",

	"ksir_residency_activations_total":           "counter",
	"ksir_residency_activation_duration_seconds": "histogram",
	"ksir_residency_hibernations_total":          "counter",
	"ksir_residency_evictions_total":             "counter",

	"ksir_http_requests_total":           "counter",
	"ksir_http_request_duration_seconds": "histogram",
	"ksir_http_requests_in_flight":       "gauge",
	"ksir_sse_subscribers":               "gauge",
	"ksir_sse_dropped_total":             "counter",

	"ksir_hub_streams":          "gauge",
	"ksir_hub_resident_streams": "gauge",
	"ksir_hub_resident_bytes":   "gauge",
	"ksir_hub_elements":         "gauge",
}

// scrapeState is one parsed exposition: family → TYPE, and series → value.
type scrapeState struct {
	types   map[string]string
	samples map[string]float64
}

func parseScrape(t *testing.T, body string) *scrapeState {
	t.Helper()
	st := &scrapeState{types: map[string]string{}, samples: map[string]float64{}}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			st.types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		st.samples[line[:sp]] = val
	}
	return st
}

// familyOf strips the series key down to the family name.
func familyOf(series string) string {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name
}

func scrapeServer(t *testing.T, url string) *scrapeState {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	var sb strings.Builder
	if _, err := copyAll(&sb, resp); err != nil {
		t.Fatal(err)
	}
	return parseScrape(t, sb.String())
}

func copyAll(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32*1024)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// checkFamilies asserts every exported family is present with its
// contracted TYPE, and every histogram family is structurally sound:
// cumulative buckets, le ascending, +Inf equal to _count.
func checkFamilies(t *testing.T, st *scrapeState) {
	t.Helper()
	for fam, typ := range metricFamilies {
		if got, ok := st.types[fam]; !ok {
			t.Errorf("family %s missing from scrape", fam)
		} else if got != typ {
			t.Errorf("family %s TYPE = %q, want %q", fam, got, typ)
		}
	}

	// Group histogram bucket series by family+labels (minus le).
	type histKey struct{ group string }
	buckets := map[histKey][]struct {
		le  float64
		val float64
	}{}
	for series, val := range st.samples {
		fam := familyOf(series)
		if st.types[fam] != "histogram" || !strings.Contains(series, "_bucket") {
			continue
		}
		leStart := strings.Index(series, `le="`)
		if leStart < 0 {
			t.Errorf("histogram bucket without le label: %s", series)
			continue
		}
		leEnd := strings.IndexByte(series[leStart+4:], '"')
		leRaw := series[leStart+4 : leStart+4+leEnd]
		le := 0.0
		if leRaw == "+Inf" {
			le = 1e308
		} else {
			var err error
			if le, err = strconv.ParseFloat(leRaw, 64); err != nil {
				t.Fatalf("bucket le %q: %v", leRaw, err)
			}
		}
		group := series[:leStart] + series[leStart+4+leEnd+1:]
		k := histKey{group}
		buckets[k] = append(buckets[k], struct{ le, val float64 }{le, val})
	}
	for k, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				t.Errorf("%s: buckets not cumulative (%.0f then %.0f)", k.group, bs[i-1].val, bs[i].val)
			}
		}
		countSeries := strings.Replace(k.group, "_bucket", "_count", 1)
		countSeries = strings.TrimSuffix(strings.TrimSuffix(countSeries, "{}"), ",}")
		count, ok := st.samples[countSeries]
		if !ok {
			// Labeled histograms keep their other labels in the count series.
			continue
		}
		if inf := bs[len(bs)-1].val; inf != count {
			t.Errorf("%s: +Inf bucket %.0f != count %.0f", k.group, inf, count)
		}
	}
}

// checkMonotone asserts no counter series decreased between two scrapes.
// withRestart skips the per-stream {stream="..."} roll-ups: they mirror the
// stream's own lifetime counters, which legitimately reset when the
// hub reopens (Prometheus counter semantics — scrapers absorb resets via
// rate()), while the process-global registry families must keep climbing.
func checkMonotone(t *testing.T, before, after *scrapeState, withRestart bool) {
	t.Helper()
	for series, prev := range before.samples {
		if withRestart && strings.HasPrefix(series, "ksir_stream_") {
			continue
		}
		fam := familyOf(series)
		typ := after.types[fam]
		if typ != "counter" && typ != "histogram" {
			continue
		}
		if strings.HasSuffix(strings.SplitN(series, "{", 2)[0], "_sum") && typ == "histogram" {
			// Sums are monotone too (durations are non-negative); fall through.
			_ = typ
		}
		if cur, ok := after.samples[series]; ok && cur < prev {
			t.Errorf("series %s decreased: %v -> %v", series, prev, cur)
		}
	}
}

func trainModel(t *testing.T) *ksir.Model {
	t.Helper()
	soccer := []string{"goal", "striker", "keeper", "league", "derby", "penalty"}
	basket := []string{"dunk", "rebound", "playoffs", "court", "buzzer", "triple"}
	rng := rand.New(rand.NewSource(1))
	var corpus []string
	for i := 0; i < 200; i++ {
		words := soccer
		if i%2 == 1 {
			words = basket
		}
		var b []string
		for j := 0; j < 6; j++ {
			b = append(b, words[rng.Intn(len(words))])
		}
		corpus = append(corpus, strings.Join(b, " "))
	}
	m, err := ksir.TrainModel(corpus, ksir.WithTopics(2), ksir.WithIterations(40),
		ksir.WithSeed(1), ksir.WithPriors(0.5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsSurfaceEndToEnd boots a durable hub behind the HTTP server,
// drives the full stream lifecycle through the Go SDK — ingest, flush,
// query, checkpoint, hibernate, reactivate, recover from disk — and
// scrapes /metrics at each stage. Every exported family must be present
// with its contracted TYPE, histograms must be structurally valid, and no
// counter may ever decrease, across recovery included (the registry is
// process-global, so a restart within the process keeps counting up).
func TestMetricsSurfaceEndToEnd(t *testing.T) {
	ctx := context.Background()
	m := trainModel(t)
	dir := t.TempDir()
	opts := ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}

	boot := func() (*ksir.Hub, *httptest.Server) {
		hub, err := ksir.OpenHub(dir, m, ksir.PersistOptions{Fsync: ksir.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return hub, httptest.NewServer(server.NewHub(hub, m, opts))
	}
	hub, srv := boot()
	sdk := client.New(srv.URL)

	if _, err := sdk.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "feed"}); err != nil {
		t.Fatal(err)
	}
	feed := sdk.Stream("feed")
	for i := 0; i < 12; i++ {
		text := "late goal wins the derby"
		if i%2 == 1 {
			text = "what a dunk in the playoffs"
		}
		if _, err := feed.Add(ctx, apiv1.Post{ID: int64(i + 1), Time: int64(30 * (i + 1)), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := feed.Flush(ctx, 600); err != nil {
		t.Fatal(err)
	}
	if _, err := feed.Query(ctx, apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}

	first := scrapeServer(t, srv.URL)
	checkFamilies(t, first)
	if first.samples["ksir_wal_fsyncs_total"] <= 0 {
		t.Error("fsync=always ingest left ksir_wal_fsyncs_total at zero")
	}
	if first.samples[`ksir_http_requests_total{route="posts"}`] < 12 {
		t.Errorf("posts route counter = %v, want >= 12",
			first.samples[`ksir_http_requests_total{route="posts"}`])
	}

	// Checkpoint, hibernate, and come back: the residency counters move and
	// nothing moves backwards.
	if _, err := feed.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := feed.Hibernate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != apiv1.StateHibernated {
		t.Fatalf("state after hibernate = %q", info.State)
	}
	if _, err := feed.Query(ctx, apiv1.QueryRequest{K: 3, Keywords: []string{"dunk"}}); err != nil {
		t.Fatal(err)
	}

	second := scrapeServer(t, srv.URL)
	checkFamilies(t, second)
	checkMonotone(t, first, second, false)
	if second.samples["ksir_residency_hibernations_total"] <= first.samples["ksir_residency_hibernations_total"] {
		t.Error("hibernation did not move ksir_residency_hibernations_total")
	}
	if second.samples["ksir_residency_activations_total"] <= first.samples["ksir_residency_activations_total"] {
		t.Error("reactivating query did not move ksir_residency_activations_total")
	}
	if second.samples["ksir_checkpoints_total"] <= first.samples["ksir_checkpoints_total"] {
		t.Error("checkpoint did not move ksir_checkpoints_total")
	}

	// Restart from disk: recovery replays state, the exposition stays whole,
	// and the recovered stream answers queries with its durable contents.
	srv.Close()
	if err := hub.CloseAll(); err != nil {
		t.Fatal(err)
	}
	hub, srv = boot()
	defer srv.Close()
	defer hub.CloseAll()
	sdk = client.New(srv.URL)

	res, err := sdk.Stream("feed").Query(ctx, apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Fatal("recovered stream returned no results")
	}
	third := scrapeServer(t, srv.URL)
	checkFamilies(t, third)
	checkMonotone(t, second, third, true)
	if third.samples["ksir_hub_streams"] != 1 { // "feed", recovered from disk
		t.Errorf("hub streams after recovery = %v, want 1", third.samples["ksir_hub_streams"])
	}
}
