package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
)

// handleCreateStream registers a new stream over the server's model.
// Unset fields inherit the server defaults; lambda is a pointer so λ=0
// (pure influence) is expressible on the wire.
func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	var req apiv1.CreateStreamRequest
	if !decodeBody(w, r, &req) {
		return
	}
	opts := s.defaults
	if req.WindowSec != 0 {
		opts.Window = time.Duration(req.WindowSec) * time.Second
	}
	if req.BucketSec != 0 {
		opts.Bucket = time.Duration(req.BucketSec) * time.Second
	}
	if req.Lambda != nil {
		opts.Lambda = req.Lambda
	}
	if req.Eta != 0 {
		opts.Eta = req.Eta
	}
	hs, err := s.hub.Create(req.Name, s.model, opts)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, s.streamInfo(hs))
}

func (s *Server) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	resp := apiv1.ListStreamsResponse{Streams: []apiv1.StreamInfo{}}
	for _, name := range s.hub.List() {
		hs, err := s.hub.Get(name)
		if err != nil {
			continue // closed between List and Get
		}
		resp.Streams = append(resp.Streams, s.streamInfo(hs))
	}
	writeJSON(w, resp)
}

func (s *Server) handleCloseStream(w http.ResponseWriter, r *http.Request) {
	if err := s.hub.Close(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCheckpoint forces an immediate checkpoint: the stream's full
// state is made durable and its WAL truncated. 409/persist_disabled on a
// server running without a data directory. The response is the stream's
// info just after the checkpoint (persist.checkpoint_bucket reflects it).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, hs *ksir.Stream) {
	if _, err := hs.CheckpointContext(r.Context()); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, s.streamInfo(hs))
}

// sseBuffer is how many refreshes an SSE connection may fall behind
// before the oldest pending event is dropped (the latest state wins; a
// standing query is a state feed, not a log).
const sseBuffer = 32

// handleSubscribe registers a standing query and streams its refreshes as
// Server-Sent Events until the client disconnects. Parameters:
//
//	k        result size (required, > 0)
//	keywords comma- or space-separated query keywords (required)
//	every    refresh interval: Go duration ("90s") or integer seconds;
//	         default: the stream's bucket interval
//	only_changed  "true" suppresses refreshes with an unchanged result set
//	algorithm     mttd (default) | mtts | topk
//	epsilon       approximation knob ε
//
// Each event is `event: refresh` with `id:` and the body's "bucket" field
// carrying the bucket sequence the refresh observed.
//
// Resume: a reconnecting consumer presents the last bucket seq it saw via
// the standard SSE `Last-Event-ID` header (or a `last_event_id` query
// parameter for clients that cannot set headers). The server then (a)
// replays the current answer immediately as a catch-up refresh when
// buckets were ingested while the consumer was away, and (b) suppresses
// refreshes for buckets at or below the presented cursor, so a consumer
// that reconnects with the id of its last received event never sees a
// bucket twice.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request, hs *ksir.Stream) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, "response writer does not support streaming")
		return
	}
	req, every, onlyChanged, err := parseSubscribeParams(r, hs)
	if err != nil {
		writeError(w, err)
		return
	}
	q, err := toQuery(req)
	if err != nil {
		writeError(w, err)
		return
	}
	lei := r.Header.Get("Last-Event-ID")
	if lei == "" {
		lei = r.URL.Query().Get("last_event_id")
	}
	sinceBucket, err := parseLastEventID(lei)
	if err != nil {
		writeError(w, err)
		return
	}
	// Pre-flight the standing query once: an unanswerable query (e.g.
	// keywords outside the model vocabulary) gets an immediate 400 here
	// instead of a 200 event stream that only ever heartbeats. On resume
	// the answer doubles as the catch-up refresh below.
	pre, err := hs.Query(r.Context(), q)
	if err != nil {
		writeError(w, err)
		return
	}

	// The subscription handler runs inside the Add/Flush that completes a
	// bucket, under the stream's lock; it must never block, so refreshes are handed to the SSE
	// loop through a bounded channel with drop-oldest overflow (deliverSSE,
	// metrics.go — each shed refresh is counted per stream and globally).
	events := make(chan apiv1.QueryResponse, sseBuffer)
	c := s.sseFor(hs.Name())
	deliver := func(res ksir.Result) {
		s.deliverSSE(c, events, toResponse(res))
	}
	var subOpts []ksir.SubscribeOption
	if onlyChanged {
		subOpts = append(subOpts, ksir.OnlyOnChange())
	}
	// Refresh failures are isolated per subscription by the library; for
	// the wire consumer they are invisible (the next successful refresh
	// supersedes), so the hook is only a debugging seam.
	sub, err := hs.Subscribe(r.Context(), q, every, deliver, subOpts...)
	if err != nil {
		writeError(w, err)
		return
	}
	defer hs.Unsubscribe(sub)
	c.subscribers.Add(1)
	obsSSESubscribers.Inc()
	defer func() {
		c.subscribers.Add(-1)
		obsSSESubscribers.Dec()
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An immediate comment confirms the subscription is live before the
	// first bucket boundary.
	fmt.Fprintf(w, ": subscribed stream=%s k=%d every=%s\n\n", hs.Name(), q.K, every)
	flusher.Flush()

	// lastSent is the resume/duplicate filter: refreshes observe strictly
	// increasing bucket seqs (they fire at bucket boundaries), so anything
	// at or below it was already delivered — on this connection or the one
	// this consumer is resuming from.
	lastSent := sinceBucket
	if resp := toResponse(pre); sinceBucket >= 0 && resp.Bucket > sinceBucket {
		// Catch-up refresh: buckets were ingested while the consumer was
		// disconnected. Replay the current answer now instead of leaving
		// it stale until the next boundary fires.
		if data, merr := json.Marshal(resp); merr == nil {
			if _, err := fmt.Fprintf(w, "event: refresh\nid: %d\ndata: %s\n\n", resp.Bucket, data); err != nil {
				return
			}
			flusher.Flush()
			lastSent = resp.Bucket
		}
	}

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Graceful server shutdown: end the event stream now so the
			// HTTP drain only waits on ordinary in-flight requests.
			fmt.Fprint(w, "event: closed\ndata: {}\n\n")
			flusher.Flush()
			return
		case <-hs.Done():
			// The stream was closed out of the hub: tell the consumer and
			// end the event stream instead of heartbeating forever.
			fmt.Fprint(w, "event: closed\ndata: {}\n\n")
			flusher.Flush()
			return
		case <-heartbeat.C:
			// Comment line: keeps proxies from idling the connection out.
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev := <-events:
			if ev.Bucket <= lastSent {
				// Already delivered (the catch-up refresh, or an event the
				// consumer received before reconnecting): a resume must
				// not duplicate refreshes.
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: refresh\nid: %d\ndata: %s\n\n", ev.Bucket, data); err != nil {
				return
			}
			flusher.Flush()
			lastSent = ev.Bucket
		}
	}
}

// parseLastEventID parses a subscription's resume cursor — the id of the
// last event the consumer received, a bucket sequence number. An empty one
// is a fresh subscription, -1: bucket sequences start at 1, so -1 never
// suppresses anything. Anything but a non-negative int64 written the way
// the server writes event ids (in decimal, with no sign and no leading
// zero) is ErrBadSubscription.
func parseLastEventID(lei string) (int64, error) {
	if lei == "" {
		return -1, nil
	}
	v, err := strconv.ParseInt(lei, 10, 64)
	if err != nil || v < 0 || strconv.FormatInt(v, 10) != lei {
		return 0, fmt.Errorf("%w: bad Last-Event-ID %q", ksir.ErrBadSubscription, lei)
	}
	return v, nil
}

func parseSubscribeParams(r *http.Request, hs *ksir.Stream) (req apiv1.QueryRequest, every time.Duration, onlyChanged bool, err error) {
	qs := r.URL.Query()
	k, err := strconv.Atoi(qs.Get("k"))
	if err != nil {
		return req, 0, false, fmt.Errorf("%w: k must be an integer, got %q", ksir.ErrBadSubscription, qs.Get("k"))
	}
	req.K = k
	req.Keywords = strings.FieldsFunc(qs.Get("keywords"), func(r rune) bool {
		return r == ',' || r == ' '
	})
	req.Algorithm = qs.Get("algorithm")
	if eps := qs.Get("epsilon"); eps != "" {
		req.Epsilon, err = strconv.ParseFloat(eps, 64)
		if err != nil {
			return req, 0, false, fmt.Errorf("%w: bad epsilon %q", ksir.ErrBadSubscription, eps)
		}
	}
	every = hs.Options().Bucket
	if ev := qs.Get("every"); ev != "" {
		if d, derr := time.ParseDuration(ev); derr == nil {
			every = d
		} else if sec, serr := strconv.Atoi(ev); serr == nil {
			every = time.Duration(sec) * time.Second
		} else {
			return req, 0, false, fmt.Errorf("%w: bad refresh interval %q", ksir.ErrBadSubscription, ev)
		}
	}
	onlyChanged = qs.Get("only_changed") == "true" || qs.Get("only_changed") == "1"
	return req, every, onlyChanged, nil
}
