package integration

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/internal/server"
	"github.com/social-streams/ksir/internal/trace"
)

// Wire shapes of GET /debug/traces (internal/server/trace.go).
type wireSpan struct {
	SpanID string `json:"span_id"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Dur    int64  `json:"duration_ns"`
}

type wireTrace struct {
	TraceID string     `json:"trace_id"`
	Stream  string     `json:"stream"`
	Dur     int64      `json:"duration_ns"`
	Spans   []wireSpan `json:"spans"`
}

func fetchTraces(t *testing.T, url string) []wireTrace {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var body struct {
		Traces []wireTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Traces
}

// waitTrace polls /debug/traces until pred matches a trace: the root op is
// closed just after the response bytes leave the handler, so the trace can
// land in the ring a moment after the SDK call returns.
func waitTrace(t *testing.T, url string, pred func(wireTrace) bool) wireTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, tr := range fetchTraces(t, url) {
			if pred(tr) {
				return tr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no trace matching predicate at %s", url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// span returns the first span with the given name, failing if absent.
func (tr wireTrace) span(t *testing.T, name string) wireSpan {
	t.Helper()
	for _, s := range tr.Spans {
		if s.Name == name {
			return s
		}
	}
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = s.Name
	}
	t.Fatalf("trace %s has no span %q (spans: %s)", tr.TraceID, name, strings.Join(names, " "))
	return wireSpan{}
}

// TestTracingEndToEnd drives a durable server through the Go SDK with an
// injected W3C traceparent and asserts the recorded span trees: an ingest
// trace joins the caller's trace id and breaks down into post-build,
// queue-wait, commit-batch, engine-apply, WAL-append and fsync child spans
// with non-zero durations; a query trace records snapshot.pin and
// query.descend; reactivating a hibernated stream records stream.activate;
// and scraping /debug/traces never reactivates a hibernated stream.
func TestTracingEndToEnd(t *testing.T) {
	rec := trace.Default()
	oldRate, oldSlow := rec.SampleRate(), rec.SlowThreshold()
	rec.SetSampleRate(1) // keep every op: the assertions are about span shape
	rec.SetSlowThreshold(0)
	defer func() {
		rec.SetSampleRate(oldRate)
		rec.SetSlowThreshold(oldSlow)
	}()

	ctx := context.Background()
	m := trainModel(t)
	opts := ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}
	hub, err := ksir.OpenHub(t.TempDir(), m, ksir.PersistOptions{Fsync: ksir.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.CloseAll()
	srv := httptest.NewServer(server.NewHub(hub, m, opts))
	defer srv.Close()
	sdk := client.New(srv.URL)
	tracesURL := srv.URL + "/debug/traces"

	if _, err := sdk.CreateStream(ctx, apiv1.CreateStreamRequest{Name: "feed"}); err != nil {
		t.Fatal(err)
	}
	feed := sdk.Stream("feed")

	// Ingest with an injected traceparent: the server-side trace must join
	// the caller's trace id and parent the request root under its span id.
	const callerTraceID = "0123456789abcdef0123456789abcdef"
	const callerSpanID = "00f067aa0ba902b7"
	ictx := client.WithTraceparent(ctx, "00-"+callerTraceID+"-"+callerSpanID+"-01")
	if _, err := feed.Add(ictx,
		apiv1.Post{ID: 1, Time: 30, Text: "late goal wins the derby"},
		apiv1.Post{ID: 2, Time: 60, Text: "what a dunk in the playoffs"},
		apiv1.Post{ID: 3, Time: 90, Text: "striker scores the penalty"},
	); err != nil {
		t.Fatal(err)
	}

	ingest := waitTrace(t, tracesURL+"?stream=feed", func(tr wireTrace) bool {
		return tr.TraceID == callerTraceID && len(tr.Spans) > 0 && tr.Spans[0].Name == "http.posts"
	})
	root := ingest.Spans[0]
	if root.Parent != callerSpanID {
		t.Errorf("root parent = %s, want the injected caller span %s", root.Parent, callerSpanID)
	}
	if ingest.Stream != "feed" {
		t.Errorf("ingest trace stream = %q, want feed", ingest.Stream)
	}
	build := ingest.span(t, "post.build")
	qw := ingest.span(t, "queue.wait")
	cb := ingest.span(t, "commit.batch")
	apply := ingest.span(t, "engine.apply")
	wal := ingest.span(t, "wal.append")
	fsync := ingest.span(t, "wal.fsync")
	for _, s := range []wireSpan{build, qw, cb, apply, wal, fsync} {
		if s.Dur <= 0 {
			t.Errorf("span %s has non-positive duration %d", s.Name, s.Dur)
		}
	}
	if build.Parent != root.SpanID || qw.Parent != root.SpanID || cb.Parent != root.SpanID {
		t.Error("post.build/queue.wait/commit.batch not parented to the request root")
	}
	if apply.Parent != cb.SpanID || wal.Parent != cb.SpanID || fsync.Parent != cb.SpanID {
		t.Error("engine.apply/wal.append/wal.fsync not parented to commit.batch")
	}

	// A query trace records the snapshot pin and the ranked-list descent.
	if _, err := feed.Flush(ctx, 600); err != nil {
		t.Fatal(err)
	}
	if _, err := feed.Query(ctx, apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	query := waitTrace(t, tracesURL+"?stream=feed", func(tr wireTrace) bool {
		if len(tr.Spans) == 0 || tr.Spans[0].Name != "http.query" {
			return false
		}
		for _, s := range tr.Spans {
			if s.Name == "snapshot.pin" {
				return true
			}
		}
		return false
	})
	pin := query.span(t, "snapshot.pin")
	descend := query.span(t, "query.descend")
	if pin.Parent != query.Spans[0].SpanID {
		t.Error("snapshot.pin not parented to the request root")
	}
	if descend.Parent != pin.SpanID {
		t.Error("query.descend not parented to snapshot.pin")
	}

	// The filter parameters are honored.
	if got := len(fetchTraces(t, tracesURL+"?limit=1")); got != 1 {
		t.Errorf("limit=1 returned %d traces", got)
	}
	if got := len(fetchTraces(t, tracesURL+"?min_duration=1h")); got != 0 {
		t.Errorf("min_duration=1h returned %d traces", got)
	}

	// Hibernate, then scrape traces: introspection must never reactivate a
	// hibernated stream (the handler reads only the recorder's ring).
	if info, err := feed.Hibernate(ctx); err != nil {
		t.Fatal(err)
	} else if info.State != apiv1.StateHibernated {
		t.Fatalf("state after hibernate = %q", info.State)
	}
	fetchTraces(t, tracesURL)
	fetchTraces(t, tracesURL+"?stream=feed")
	info, err := feed.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != apiv1.StateHibernated {
		t.Fatalf("scraping /debug/traces reactivated the stream (state %q)", info.State)
	}

	// The reactivating query's trace carries the activation span.
	if _, err := feed.Query(ctx, apiv1.QueryRequest{K: 3, Keywords: []string{"dunk"}}); err != nil {
		t.Fatal(err)
	}
	react := waitTrace(t, tracesURL+"?stream=feed", func(tr wireTrace) bool {
		if len(tr.Spans) == 0 || tr.Spans[0].Name != "http.query" {
			return false
		}
		for _, s := range tr.Spans {
			if s.Name == "stream.activate" {
				return true
			}
		}
		return false
	})
	if act := react.span(t, "stream.activate"); act.Dur <= 0 {
		t.Errorf("stream.activate duration = %d, want > 0", act.Dur)
	}
}

// TestTraceResponseHeader asserts the traced routes echo this hop's
// traceparent: same trace id as the injected parent, a fresh span id, and
// the sampled flag preserved.
func TestTraceResponseHeader(t *testing.T) {
	rec := trace.Default()
	oldRate, oldSlow := rec.SampleRate(), rec.SlowThreshold()
	rec.SetSampleRate(1)
	rec.SetSlowThreshold(0)
	defer func() {
		rec.SetSampleRate(oldRate)
		rec.SetSlowThreshold(oldSlow)
	}()

	m := trainModel(t)
	opts := ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}
	hub := ksir.NewHub()
	defer hub.CloseAll()
	srv := httptest.NewServer(server.NewHub(hub, m, opts))
	defer srv.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/streams", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echoed := resp.Header.Get("traceparent")
	sc, ok := trace.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echoed)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("response trace id = %s, want the injected one", sc.TraceID)
	}
	if sc.SpanID.String() == "00f067aa0ba902b7" {
		t.Error("response span id echoes the parent span; want this hop's root span")
	}
	if !sc.Sampled {
		t.Error("sampled flag not preserved")
	}

	// Without an inbound traceparent the response still announces the
	// server-side trace so callers can look it up at /debug/traces.
	resp2, err := http.Get(srv.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if _, ok := trace.ParseTraceparent(resp2.Header.Get("traceparent")); !ok {
		t.Errorf("response without inbound traceparent carries invalid %q",
			resp2.Header.Get("traceparent"))
	}
}
