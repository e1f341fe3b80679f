package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/internal/metrics"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// GET /metrics exposes the registered process families plus the hub
// collector's aggregate and per-stream series, in text format 0.0.4.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := defaultServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// The request counters are process-wide and count every earlier test
	// (and every earlier run under go test -count=N): read what this test
	// adds.
	const postsSeries = `ksir_http_requests_total{route="posts"}`
	postsBefore := seriesValue(scrape(t, srv), postsSeries)
	for i := 0; i < 10; i++ {
		postJSON(t, srv, "/v1/streams/default/posts",
			apiv1.Post{ID: int64(i + 1), Time: int64(90 * (i + 1)), Text: "goal striker derby"})
	}
	postJSON(t, srv, "/v1/streams/default/query",
		apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}})

	got := scrape(t, srv)
	for _, want := range []string{
		"# TYPE ksir_engine_elements_ingested_total counter",
		"# TYPE ksir_engine_query_duration_seconds histogram",
		`ksir_engine_query_duration_seconds_bucket{algorithm="MTTD",le="+Inf"}`,
		"# TYPE ksir_http_requests_total counter",
		"# TYPE ksir_hub_streams gauge",
		"ksir_hub_resident_streams 1",
		// 9, not 10: the newest post is still pending in the incomplete
		// bucket and becomes an element at the next boundary.
		`ksir_stream_elements_total{stream="default"} 9`,
		`ksir_stream_queue_depth{stream="default"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if n := seriesValue(got, postsSeries) - postsBefore; n != 10 {
		t.Errorf("%s rose by %v over 10 posts", postsSeries, n)
	}
}

// seriesValue reads one series' value from an exposition (0 when absent).
func seriesValue(expo, series string) float64 {
	for _, line := range strings.Split(expo, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}

// The drop-oldest SSE shed path counts every dropped refresh: the channel
// keeps only the newest refreshes, and the shed count surfaces both in the
// per-stream counters and in the StreamInfo wire block.
func TestSSEDropOldestCountsDrops(t *testing.T) {
	s, _ := defaultServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Force drops through the exact delivery function handleSubscribe
	// installs: a 2-slot buffer receiving 5 refreshes with no consumer must
	// shed the 3 oldest.
	c := s.sseFor(DefaultStream)
	events := make(chan apiv1.QueryResponse, 2)
	for i := 1; i <= 5; i++ {
		s.deliverSSE(c, events, apiv1.QueryResponse{Bucket: int64(i)})
	}
	if got := c.dropped.Load(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// Latest state wins: the survivors are the two newest refreshes.
	if ev := <-events; ev.Bucket != 4 {
		t.Errorf("oldest surviving refresh bucket = %d, want 4", ev.Bucket)
	}
	if ev := <-events; ev.Bucket != 5 {
		t.Errorf("newest surviving refresh bucket = %d, want 5", ev.Bucket)
	}

	// The counter crosses the wire: stats carries the sse block...
	resp, body := doJSON(t, http.MethodGet, srv.URL+"/v1/streams/default/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var info apiv1.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.SSE == nil {
		t.Fatal("stats missing sse block")
	}
	if info.SSE.Dropped != 3 {
		t.Errorf("stats sse.dropped = %d, want 3", info.SSE.Dropped)
	}
	// ...and /metrics carries the per-stream family.
	if got := scrape(t, srv); !strings.Contains(got,
		`ksir_stream_sse_dropped_total{stream="default"} 3`) {
		t.Error("scrape missing per-stream sse dropped counter")
	}
}

// A live SSE subscription is visible in stats while connected and gone
// after disconnect.
func TestSSESubscriberCountOnWire(t *testing.T) {
	s, _ := defaultServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/streams/default/subscribe?k=3&keywords=goal", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	// Wait for the subscription preamble so registration has happened.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		_, body := doJSON(t, http.MethodGet, srv.URL+"/v1/streams/default/stats", nil)
		var info apiv1.StreamInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.SSE != nil && info.SSE.Subscribers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sse.subscribers never reached 1: %+v", info.SSE)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Observability must not churn the hot tier: scraping /metrics, listing
// /v1/streams and reading stats on a hibernated stream under a 1-slot
// residency budget must cause zero activations — the scrape serves the
// lastStats captured at hibernation. (A query then proves the activation
// counter does move when reactivation is real.)
func TestMetricsScrapeResidencyNoReactivation(t *testing.T) {
	m := testModel(t)
	hub, err := ksir.OpenHub(t.TempDir(), m, ksir.PersistOptions{
		Fsync:              ksir.FsyncNever,
		MaxResidentStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.CloseAll()
	srv := httptest.NewServer(NewHub(hub, m, testOpts))
	defer srv.Close()

	doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "cold"})
	for i := 0; i < 10; i++ {
		doJSON(t, http.MethodPost, srv.URL+"/v1/streams/cold/posts",
			apiv1.Post{ID: int64(i + 1), Time: int64(90 * (i + 1)), Text: "goal striker derby"})
	}
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/cold/hibernate", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("hibernate = %d: %s", resp.StatusCode, body)
	}

	activations := func() (int64, string) {
		t.Helper()
		_, body := doJSON(t, http.MethodGet, srv.URL+"/v1/streams/cold/stats", nil)
		var info apiv1.StreamInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		return info.Residency.Activations, info.State
	}
	before, state := activations()
	if state != apiv1.StateHibernated {
		t.Fatalf("state after hibernate = %q, want hibernated", state)
	}

	// Every read-only observability surface, several times over.
	for i := 0; i < 3; i++ {
		got := scrape(t, srv)
		if !strings.Contains(got, "ksir_hub_resident_streams 0") {
			t.Errorf("scrape %d: hibernated stream counted resident", i)
		}
		// Per-stream series follow the cardinality policy: no resident
		// streams, no {stream=...} samples.
		if strings.Contains(got, `{stream="cold"} `) && !strings.Contains(got, `ksir_stream_sse`) {
			t.Errorf("scrape %d emitted per-stream series for a cold stream", i)
		}
		// Aggregates still include the cold stream's last-known counters
		// (9 elements: the newest post is pending in the open bucket).
		if !strings.Contains(got, "ksir_hub_elements 9") {
			t.Errorf("scrape %d: hub elements aggregate lost the cold stream", i)
		}
		if resp, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/streams", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("list = %d", resp.StatusCode)
		}
	}

	after, state := activations()
	if state != apiv1.StateHibernated {
		t.Errorf("state after scrapes = %q, want hibernated (observability reactivated the stream)", state)
	}
	if after != before {
		t.Errorf("activations %d -> %d across scrapes, want unchanged", before, after)
	}

	// Control: a real query does reactivate, so the counter we watched is
	// the live one.
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/cold/query",
		apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", resp.StatusCode, body)
	}
	final, _ := activations()
	if final != before+1 {
		t.Errorf("activations after query = %d, want %d", final, before+1)
	}
}
