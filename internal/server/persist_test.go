package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
)

// durableServer builds a server over a durable hub rooted at dir.
func durableServer(t *testing.T, dir string, m *ksir.Model) (*httptest.Server, *ksir.Hub) {
	t.Helper()
	hub, err := ksir.OpenHub(dir, m, ksir.PersistOptions{Fsync: ksir.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHub(hub, m, testOpts))
	t.Cleanup(srv.Close)
	return srv, hub
}

// The wire-level restart story: create a stream over /v1, ingest, crash
// the server process (hub abandoned), boot a new server over the same
// data directory — the stream is back with identical query answers and
// bucket sequence, and stats carry the persistence block.
func TestServerRecoversStreamsAcrossRestart(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	srv, _ := durableServer(t, dir, m)

	resp, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "feed"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	for i := 0; i < 30; i++ {
		post := apiv1.Post{ID: int64(i + 1), Time: int64(30 * (i + 1)), Text: "late goal wins the derby"}
		if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/feed/posts", post); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	query := apiv1.QueryRequest{K: 5, Keywords: []string{"goal", "striker"}}
	var before apiv1.QueryResponse
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/feed/query", query); resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}

	// "Crash": the first hub is never closed; boot a second server.
	srv2, hub2 := durableServer(t, dir, m)
	defer hub2.CloseAll()
	var after apiv1.QueryResponse
	if resp, body := doJSON(t, http.MethodPost, srv2.URL+"/v1/streams/feed/query", query); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart query = %d: %s", resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Posts, before.Posts) || after.Bucket != before.Bucket {
		t.Errorf("post-restart answer diverges:\n got %+v\nwant %+v", after, before)
	}

	resp, body := doJSON(t, http.MethodGet, srv2.URL+"/v1/streams/feed/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var info apiv1.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Persist == nil {
		t.Fatal("stats missing persist block on a durable server")
	}
	if info.Persist.WALSeq == 0 {
		t.Error("recovered WALSeq = 0, want the pre-crash watermark")
	}
}

// POST /v1/streams/{name}/checkpoint forces a checkpoint (WAL truncates,
// counters advance); on a memoryless hub it answers 409/persist_disabled.
func TestCheckpointEndpoint(t *testing.T) {
	m := testModel(t)
	srv, hub := durableServer(t, t.TempDir(), m)
	defer hub.CloseAll()

	doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "feed"})
	for i := 0; i < 5; i++ {
		doJSON(t, http.MethodPost, srv.URL+"/v1/streams/feed/posts",
			apiv1.Post{ID: int64(i + 1), Time: int64(90 * (i + 1)), Text: "dunk rebound court"})
	}
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/feed/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint = %d: %s", resp.StatusCode, body)
	}
	var info apiv1.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Persist == nil || info.Persist.Checkpoints != 1 || info.Persist.WALBytes != 0 {
		t.Errorf("checkpoint info = %+v, want 1 checkpoint and an empty WAL", info.Persist)
	}
	if info.Persist != nil && info.Persist.CheckpointBucket != info.Bucket {
		t.Errorf("checkpoint covers bucket %d, stream at %d", info.Persist.CheckpointBucket, info.Bucket)
	}

	// Unknown stream: 404 before touching persistence.
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/nope/checkpoint", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("checkpoint on unknown stream = %d: %s", resp.StatusCode, body)
	}

	// In-memory server: typed 409.
	s, _ := defaultServer(t)
	plain := httptest.NewServer(s)
	defer plain.Close()
	resp, body = doJSON(t, http.MethodPost, plain.URL+"/v1/streams/default/checkpoint", nil)
	if resp.StatusCode != http.StatusConflict || errCode(t, body) != apiv1.CodePersistDisabled {
		t.Errorf("checkpoint without -data-dir = %d %s, want 409 %s", resp.StatusCode, body, apiv1.CodePersistDisabled)
	}
}

// A server-crashed stream with standing SSE state recovers cleanly and
// keeps serving; DELETE on the durable server checkpoints and keeps the
// on-disk state for the next boot.
func TestServerCloseKeepsDurableState(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	srv, hub := durableServer(t, dir, m)

	doJSON(t, http.MethodPost, srv.URL+"/v1/streams", apiv1.CreateStreamRequest{Name: "feed"})
	for i := 0; i < 10; i++ {
		doJSON(t, http.MethodPost, srv.URL+"/v1/streams/feed/posts",
			apiv1.Post{ID: int64(i + 1), Time: int64(75 * (i + 1)), Text: fmt.Sprintf("penalty league %d", i)})
	}
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/streams/feed/flush", apiv1.FlushRequest{Now: 800}); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush = %d: %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, http.MethodDelete, srv.URL+"/v1/streams/feed", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d: %s", resp.StatusCode, body)
	}
	_ = hub // the deleted stream's WAL/checkpoint remain on disk

	srv2, hub2 := durableServer(t, dir, m)
	defer hub2.CloseAll()
	resp, body := doJSON(t, http.MethodGet, srv2.URL+"/v1/streams/feed/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after reboot = %d: %s", resp.StatusCode, body)
	}
	var info apiv1.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Elements != 10 {
		t.Errorf("recovered elements = %d, want 10", info.Elements)
	}
}

// StopSubscriptions ends live SSE connections with a closed event so the
// graceful-shutdown HTTP drain only waits on ordinary requests.
func TestStopSubscriptionsEndsSSE(t *testing.T) {
	m := testModel(t)
	hub := ksir.NewHub()
	defer hub.CloseAll()
	hs, err := hub.Create("feed", m, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewHub(hub, m, testOpts)
	srv := httptest.NewServer(s)
	defer srv.Close()

	if err := hs.Add(ksir.Post{ID: 1, Time: 60, Text: "late goal wins the derby"}); err != nil {
		t.Fatal(err)
	}
	if err := hs.Flush(120); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/streams/feed/subscribe?k=1&keywords=goal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("preamble = %q, %v", line, err)
	}

	s.StopSubscriptions()
	s.StopSubscriptions() // idempotent
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("connection ended without a closed event: %v", err)
		}
		if strings.HasPrefix(line, "event: closed") {
			return
		}
	}
}
