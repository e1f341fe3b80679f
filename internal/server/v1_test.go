package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
)

// v1Server builds a hub-backed server with no pre-registered streams.
func v1Server(t *testing.T) (*httptest.Server, *ksir.Hub) {
	t.Helper()
	hub := ksir.NewHub()
	srv := httptest.NewServer(NewHub(hub, testModel(t), testOpts))
	t.Cleanup(srv.Close)
	return srv, hub
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env apiv1.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return env.Err.Code
}

func TestV1StreamLifecycle(t *testing.T) {
	srv, _ := v1Server(t)

	// Create with an explicit λ=0 — the wire must distinguish it from
	// unset.
	zero := 0.0
	r, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams",
		apiv1.CreateStreamRequest{Name: "feed", BucketSec: 60, WindowSec: 3600, Lambda: &zero})
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", r.StatusCode, body)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("create Content-Type = %q", ct)
	}
	var info apiv1.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "feed" || info.BucketSec != 60 || info.Lambda != 0 {
		t.Errorf("created info = %+v", info)
	}

	// Duplicate name → 409 stream_exists.
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "feed"})
	if r.StatusCode != http.StatusConflict || errCode(t, body) != apiv1.CodeStreamExists {
		t.Errorf("duplicate create: %d %s", r.StatusCode, body)
	}
	// Invalid name → 400 bad_options.
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "a/b"})
	if r.StatusCode != http.StatusBadRequest || errCode(t, body) != apiv1.CodeBadOptions {
		t.Errorf("bad name: %d %s", r.StatusCode, body)
	}

	// List contains the stream.
	r, body = doJSON(t, http.MethodGet, srv.URL+"/v1/streams", nil)
	var list apiv1.ListStreamsResponse
	if err := json.Unmarshal(body, &list); err != nil || r.StatusCode != 200 {
		t.Fatalf("list: %d %v %s", r.StatusCode, err, body)
	}
	if len(list.Streams) != 1 || list.Streams[0].Name != "feed" {
		t.Errorf("list = %+v", list)
	}

	// Close, then the routes 404 with unknown_stream.
	r, _ = doJSON(t, http.MethodDelete, srv.URL+"/v1/streams/feed", nil)
	if r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", r.StatusCode)
	}
	r, body = doJSON(t, http.MethodGet, srv.URL+"/v1/streams/feed/stats", nil)
	if r.StatusCode != http.StatusNotFound || errCode(t, body) != apiv1.CodeUnknownStream {
		t.Errorf("stats after close: %d %s", r.StatusCode, body)
	}
	r, _ = doJSON(t, http.MethodDelete, srv.URL+"/v1/streams/feed", nil)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: %d", r.StatusCode)
	}
}

func TestV1IngestQueryStats(t *testing.T) {
	srv, _ := v1Server(t)
	r, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "s", BucketSec: 60, WindowSec: 3600})
	if r.StatusCode != http.StatusCreated {
		t.Fatal("create failed")
	}

	// Batch + single ingest.
	r, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/posts", []apiv1.Post{
		{ID: 1, Time: 10, Text: "late goal wins the derby"},
		{ID: 2, Time: 20, Text: "what a dunk in the playoffs"},
	})
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("posts: %d %s", r.StatusCode, body)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("posts Content-Type = %q", ct)
	}
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/posts",
		apiv1.Post{ID: 3, Time: 30, Text: "keeper saves the penalty", Refs: []int64{1}})
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("single post: %d %s", r.StatusCode, body)
	}

	// Out-of-order → 409 out_of_order (typed over the wire).
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/posts", apiv1.Post{ID: 4, Time: 5, Text: "late"})
	if r.StatusCode != http.StatusConflict || errCode(t, body) != apiv1.CodeOutOfOrder {
		t.Errorf("out-of-order: %d %s", r.StatusCode, body)
	}

	// Flush reports the published bucket.
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/flush", apiv1.FlushRequest{Now: 60})
	var fr apiv1.FlushResponse
	if err := json.Unmarshal(body, &fr); err != nil || r.StatusCode != 200 {
		t.Fatalf("flush: %d %v %s", r.StatusCode, err, body)
	}
	if fr.Active != 3 || fr.Now != 60 || fr.Bucket == 0 {
		t.Errorf("flush = %+v", fr)
	}

	// Query observes the flushed bucket.
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/query",
		apiv1.QueryRequest{K: 2, Keywords: []string{"goal", "league"}, Explain: true})
	var qr apiv1.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || r.StatusCode != 200 {
		t.Fatalf("query: %d %v %s", r.StatusCode, err, body)
	}
	if len(qr.Posts) == 0 || qr.Score <= 0 || qr.Bucket != fr.Bucket {
		t.Errorf("query = %+v (flush bucket %d)", qr, fr.Bucket)
	}
	if len(qr.Explain) != len(qr.Posts) {
		t.Errorf("explanations missing: %d vs %d", len(qr.Explain), len(qr.Posts))
	}
	// Bad query → 400 bad_query.
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/query", apiv1.QueryRequest{K: 0})
	if r.StatusCode != http.StatusBadRequest || errCode(t, body) != apiv1.CodeBadQuery {
		t.Errorf("k=0: %d %s", r.StatusCode, body)
	}
	r, body = doJSON(t, http.MethodPost, srv.URL+"/v1/streams/s/query",
		apiv1.QueryRequest{K: 2, Keywords: []string{"goal"}, Algorithm: "bogus"})
	if r.StatusCode != http.StatusBadRequest || errCode(t, body) != apiv1.CodeBadQuery {
		t.Errorf("bogus algorithm: %d %s", r.StatusCode, body)
	}

	// Stats mirror the flush.
	r, body = doJSON(t, http.MethodGet, srv.URL+"/v1/streams/s/stats", nil)
	var info apiv1.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil || r.StatusCode != 200 {
		t.Fatalf("stats: %d %v", r.StatusCode, err)
	}
	if info.Active != 3 || info.Now != 60 || info.Elements != 3 || info.Bucket != fr.Bucket {
		t.Errorf("stats = %+v", info)
	}
}

// Multi-tenant isolation: posts land in their own stream only.
func TestV1MultiTenantIsolation(t *testing.T) {
	srv, _ := v1Server(t)
	for _, name := range []string{"a", "b"} {
		r, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/streams",
			apiv1.CreateStreamRequest{Name: name, BucketSec: 60, WindowSec: 3600})
		if r.StatusCode != http.StatusCreated {
			t.Fatal("create failed")
		}
	}
	doJSON(t, http.MethodPost, srv.URL+"/v1/streams/a/posts", apiv1.Post{ID: 1, Time: 10, Text: "goal striker"})
	doJSON(t, http.MethodPost, srv.URL+"/v1/streams/a/flush", apiv1.FlushRequest{Now: 60})
	doJSON(t, http.MethodPost, srv.URL+"/v1/streams/b/flush", apiv1.FlushRequest{Now: 60})

	for name, want := range map[string]int{"a": 1, "b": 0} {
		_, body := doJSON(t, http.MethodGet, srv.URL+fmt.Sprintf("/v1/streams/%s/stats", name), nil)
		var info apiv1.StreamInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Active != want {
			t.Errorf("stream %s active = %d, want %d", name, info.Active, want)
		}
	}
}

// testStream needs a Stream accessor; keep the fixture honest about the
// options it configures.
func TestStreamOptionsRoundTrip(t *testing.T) {
	st := testStream(t)
	opts := st.Options()
	if opts.Bucket != time.Minute || opts.Window != time.Hour || *opts.Lambda != 0.5 {
		t.Errorf("resolved options = %+v", opts)
	}
}
