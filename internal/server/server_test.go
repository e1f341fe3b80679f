package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
)

// testOpts are the options every fixture stream runs under.
var testOpts = ksir.Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}

// testModel trains the fixtures' two-topic (soccer, basketball) model.
func testModel(t testing.TB) *ksir.Model {
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

func testStream(t testing.TB) *ksir.Stream {
	t.Helper()
	st, err := ksir.New(testModel(t), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// defaultServer serves a fresh in-memory hub holding one stream,
// DefaultStream, over testModel under testOpts.
func defaultServer(t testing.TB) (*Server, *ksir.Stream) {
	t.Helper()
	m := testModel(t)
	hub := ksir.NewHub()
	t.Cleanup(func() { hub.CloseAll() })
	hs, err := hub.Create(DefaultStream, m, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	return NewHub(hub, m, testOpts), hs
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestServerEndToEnd(t *testing.T) {
	s, _ := defaultServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Health.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Ingest a batch plus a single post.
	batch := []apiv1.Post{
		{ID: 1, Time: 10, Text: "late goal wins the derby"},
		{ID: 2, Time: 20, Text: "what a dunk in the playoffs"},
	}
	r, _ := postJSON(t, srv, "/v1/streams/default/posts", batch)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("posts: %d", r.StatusCode)
	}
	r, _ = postJSON(t, srv, "/v1/streams/default/posts", apiv1.Post{ID: 3, Time: 30, Text: "keeper saves the penalty", Refs: []int64{1}})
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("single post: %d", r.StatusCode)
	}

	// Flush and check stats.
	r, body := postJSON(t, srv, "/v1/streams/default/flush", apiv1.FlushRequest{Now: 60})
	if r.StatusCode != 200 {
		t.Fatalf("flush: %d %s", r.StatusCode, body)
	}
	var info apiv1.StreamInfo
	resp, err = http.Get(srv.URL + "/v1/streams/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Active != 3 {
		t.Errorf("stats = %+v", info)
	}
	// The stats block reports the commit pipeline: the three ingest
	// requests and the flush all committed through it.
	if info.Pipeline == nil || info.Pipeline.Ops < 3 || info.Pipeline.Batches == 0 {
		t.Errorf("pipeline stats missing or empty: %+v", info.Pipeline)
	}

	// Query with explanation.
	r, body = postJSON(t, srv, "/v1/streams/default/query", apiv1.QueryRequest{
		K: 2, Keywords: []string{"goal", "league"}, Explain: true,
	})
	if r.StatusCode != 200 {
		t.Fatalf("query: %d %s", r.StatusCode, body)
	}
	var qr apiv1.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Posts) == 0 || qr.Score <= 0 {
		t.Fatalf("bad query response: %+v", qr)
	}
	if !strings.Contains(qr.Posts[0].Text, "goal") && !strings.Contains(qr.Posts[0].Text, "penalty") {
		t.Errorf("top post off-topic: %q", qr.Posts[0].Text)
	}
	if len(qr.Explain) != len(qr.Posts) {
		t.Errorf("explanations missing: %d vs %d", len(qr.Explain), len(qr.Posts))
	}
}

func TestServerValidation(t *testing.T) {
	s, _ := defaultServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Wrong methods (the method-qualified /v1 patterns answer 405).
	resp, err := http.Get(srv.URL + "/v1/streams/default/query")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET query = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The removed pre-/v1 aliases are gone, not silently serving the
	// default stream.
	resp, err = http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"k":1}`))
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("legacy /query = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad JSON.
	resp, err = http.Post(srv.URL+"/v1/streams/default/posts", "application/json", strings.NewReader("{nope"))
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Out-of-order post.
	r, _ := postJSON(t, srv, "/v1/streams/default/posts", apiv1.Post{ID: 1, Time: 100, Text: "goal"})
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("first post: %d", r.StatusCode)
	}
	r, _ = postJSON(t, srv, "/v1/streams/default/posts", apiv1.Post{ID: 2, Time: 50, Text: "goal"})
	if r.StatusCode != http.StatusConflict {
		t.Errorf("out-of-order post = %d, want 409", r.StatusCode)
	}

	// Invalid query.
	r, _ = postJSON(t, srv, "/v1/streams/default/query", apiv1.QueryRequest{K: 0})
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("k=0 query = %d", r.StatusCode)
	}
	r, _ = postJSON(t, srv, "/v1/streams/default/query", apiv1.QueryRequest{K: 2, Keywords: []string{"goal"}, Algorithm: "bogus"})
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus algorithm = %d", r.StatusCode)
	}
}

// A body over maxBodyBytes is refused with 413 before anything reaches
// the stream, even one that decodes to an empty batch: a client cannot
// make the server read more than the cap.
func TestOversizedBodyRefused(t *testing.T) {
	s, hs := defaultServer(t)
	if err := hs.Add(ksir.Post{ID: 1, Time: 10, Text: "late goal wins the derby"}); err != nil {
		t.Fatal(err)
	}
	if err := hs.Flush(60); err != nil {
		t.Fatal(err)
	}
	before := hs.Stats()

	body := strings.NewReader("[" + strings.Repeat(" ", maxBodyBytes) + "]")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/default/posts", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized posts body = %d, want 413: %s", rec.Code, rec.Body.String())
	}
	if code := errCode(t, rec.Body.Bytes()); code != apiv1.CodeBadRequest {
		t.Errorf("error code = %q, want %q", code, apiv1.CodeBadRequest)
	}
	after := hs.Stats()
	if after.Elements != before.Elements || after.Pipeline.Ops != before.Pipeline.Ops {
		t.Errorf("oversized body reached the stream: elements %d -> %d, ops %d -> %d",
			before.Elements, after.Elements, before.Pipeline.Ops, after.Pipeline.Ops)
	}
}

// Concurrent queries against a live server must all succeed — the paper's
// many-readers deployment shape.
func TestServerConcurrentQueries(t *testing.T) {
	s, hs := defaultServer(t)
	for i := 0; i < 60; i++ {
		text := "goal striker league"
		if i%2 == 1 {
			text = "dunk rebound playoffs"
		}
		if err := hs.Add(ksir.Post{ID: int64(i + 1), Time: int64(1 + i*10), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs.Flush(700); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kw := "goal"
			if i%2 == 1 {
				kw = "dunk"
			}
			r, body := postJSONQuiet(srv, "/v1/streams/default/query", apiv1.QueryRequest{K: 3, Keywords: []string{kw}})
			if r == nil || r.StatusCode != 200 {
				errs <- fmt.Errorf("query %d failed: %s", i, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func postJSONQuiet(srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	raw, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// Queries must succeed and stay snapshot-consistent while the writer is
// actively ingesting buckets over HTTP — the deployment §2 motivates: one
// writer, many readers, no reader ever blocked behind ingest.
func TestServerQueryDuringIngest(t *testing.T) {
	s, _ := defaultServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kw := "goal"
			if i%2 == 1 {
				kw = "dunk"
			}
			var lastBucket int64 = -1
			for {
				select {
				case <-done:
					return
				default:
				}
				// Explain exercises the pinned-snapshot read path
				// (window + scorer) concurrently with ingest.
				r, body := postJSONQuiet(srv, "/v1/streams/default/query", apiv1.QueryRequest{K: 3, Keywords: []string{kw}, Explain: i%2 == 0})
				if r == nil || r.StatusCode != 200 {
					errs <- fmt.Errorf("query %d failed: %s", i, body)
					return
				}
				var qr apiv1.QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					errs <- fmt.Errorf("query %d bad response: %v", i, err)
					return
				}
				// Each reader must observe a non-decreasing bucket
				// sequence: snapshots only move forward.
				if qr.Bucket < lastBucket {
					errs <- fmt.Errorf("query %d: bucket went backwards %d -> %d", i, lastBucket, qr.Bucket)
					return
				}
				lastBucket = qr.Bucket
			}
		}(i)
	}

	// Writer: stream posts bucket by bucket through the HTTP ingest path.
	for i := 0; i < 120; i++ {
		text := "goal striker league"
		if i%2 == 1 {
			text = "dunk rebound playoffs"
		}
		r, body := postJSONQuiet(srv, "/v1/streams/default/posts", apiv1.Post{ID: int64(i + 1), Time: int64(1 + i*10), Text: text})
		if r == nil || r.StatusCode != http.StatusAccepted {
			t.Fatalf("post %d rejected: %s", i, body)
		}
	}
	r, body := postJSONQuiet(srv, "/v1/streams/default/flush", apiv1.FlushRequest{Now: 1400})
	if r == nil || r.StatusCode != 200 {
		t.Fatalf("flush failed: %s", body)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the flush the latest snapshot must serve every reader.
	_, body = postJSONQuiet(srv, "/v1/streams/default/query", apiv1.QueryRequest{K: 3, Keywords: []string{"goal"}})
	var qr apiv1.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Active == 0 || len(qr.Posts) == 0 {
		t.Fatalf("final query empty: %+v", qr)
	}
}
