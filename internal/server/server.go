// Package server exposes a ksir.Hub over HTTP — the deployment shape §2
// motivates ("thousands of users could submit different queries at the
// same time and each query should be processed in real-time") widened to
// many named streams: per-stream writers ingest; any number of readers
// query concurrently; standing queries stream over SSE.
//
// The versioned surface (see api/v1 for the wire contract):
//
//	POST   /v1/streams                     create a stream
//	GET    /v1/streams                     list streams
//	DELETE /v1/streams/{name}              close a stream
//	POST   /v1/streams/{name}/posts       ingest one post or a batch → 202
//	POST   /v1/streams/{name}/flush       advance the stream clock
//	POST   /v1/streams/{name}/query       answer a k-SIR query
//	GET    /v1/streams/{name}/stats       configuration + counters
//	GET    /v1/streams/{name}/subscribe   standing query over SSE
//	POST   /v1/streams/{name}/checkpoint  force a durability checkpoint
//	GET    /healthz                        liveness
//	GET    /debug/traces                   recorded op traces (trace.go)
//
// Most routes run under the tracing middleware: an incoming W3C
// traceparent header is honored as the request's remote parent, the
// response echoes this hop's traceparent, and the recorded span tree is
// queryable at /debug/traces.
//
// Errors use the structured envelope {"error":{"code","message"}} with
// the typed ksir errors mapped to stable codes and status codes. A request
// body over maxBodyBytes is refused with 413 and code bad_request.
//
// The deprecated pre-/v1 routes (/posts, /flush, /query, /stats — thin
// aliases onto the stream named "default") have been removed; /v1 is the
// only wire surface. A single-tenant deployment creates one stream named
// DefaultStream in its hub and serves it at /v1/streams/default/....
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
)

// DefaultStream is the name of a single-tenant deployment's one stream
// (ksir-server creates it), served at /v1/streams/default/....
const DefaultStream = "default"

// maxBodyBytes caps every request body. The largest body an in-repo client
// sends, a batch of 256 short posts, is over 100 times smaller.
const maxBodyBytes = 32 << 20

// Server is an http.Handler serving a Hub of streams. Ingestion is
// serialized per stream by the Hub's handles (the library owns the
// single-writer discipline now); queries take no lock at all — each pins
// the engine snapshot of the last ingested bucket, so query handlers run
// truly in parallel with each other and with ingestion (the response
// reports the observed bucket).
type Server struct {
	hub      *ksir.Hub
	model    *ksir.Model
	defaults ksir.Options
	h        *http.ServeMux
	// closing ends long-lived SSE connections during graceful shutdown
	// (see StopSubscriptions): SSE would otherwise hold http.Server.
	// Shutdown open until its deadline.
	closing   chan struct{}
	closeOnce sync.Once
	// sse is the per-stream SSE accounting (metrics.go). Kept on the
	// Server rather than the stream handle so the counters survive
	// hibernation/reactivation cycles.
	sseMu sync.Mutex
	sse   map[string]*sseCounters
	// logger receives per-request debug lines (trace.go); nil means
	// slog.Default() at call time.
	logger *slog.Logger
}

// NewHub serves an existing Hub. model and defaults seed streams created
// over POST /v1/streams; request fields override them.
func NewHub(hub *ksir.Hub, model *ksir.Model, defaults ksir.Options) *Server {
	s := &Server{hub: hub, model: model, defaults: defaults,
		h: http.NewServeMux(), closing: make(chan struct{}),
		sse: make(map[string]*sseCounters)}

	// Versioned surface (method-qualified patterns; ServeMux answers 405
	// for a known path with the wrong method). Every route runs under the
	// per-route request counter and latency histogram (metrics.go).
	s.h.HandleFunc("POST /v1/streams", s.route("create_stream", s.handleCreateStream))
	s.h.HandleFunc("GET /v1/streams", s.route("list_streams", s.handleListStreams))
	s.h.HandleFunc("DELETE /v1/streams/{name}", s.route("close_stream", s.handleCloseStream))
	s.h.HandleFunc("POST /v1/streams/{name}/posts", s.route("posts", s.named(s.handlePosts)))
	s.h.HandleFunc("POST /v1/streams/{name}/flush", s.route("flush", s.named(s.handleFlush)))
	s.h.HandleFunc("POST /v1/streams/{name}/query", s.route("query", s.named(s.handleQuery)))
	s.h.HandleFunc("GET /v1/streams/{name}/stats", s.route("stats", s.named(s.handleStats)))
	s.h.HandleFunc("GET /v1/streams/{name}/subscribe", s.route("subscribe", s.named(s.handleSubscribe)))
	s.h.HandleFunc("POST /v1/streams/{name}/checkpoint", s.route("checkpoint", s.named(s.handleCheckpoint)))
	s.h.HandleFunc("POST /v1/streams/{name}/hibernate", s.route("hibernate", s.named(s.handleHibernate)))

	s.h.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.h.HandleFunc("GET /debug/traces", s.route("debug_traces", s.handleDebugTraces))
	s.h.HandleFunc("/healthz", s.route("healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	return s
}

// Hub returns the served hub (for embedding callers that also manage
// streams programmatically).
func (s *Server) Hub() *ksir.Hub { return s.hub }

// StopSubscriptions ends every live SSE connection with a final `closed`
// event. Call it at the start of a graceful shutdown, before
// http.Server.Shutdown: SSE connections never finish on their own, so
// without this the drain blocks until its deadline while ordinary
// in-flight requests are the ones the drain budget was meant for.
// Idempotent; new subscribe requests after the call end immediately.
func (s *Server) StopSubscriptions() { s.closeOnce.Do(func() { close(s.closing) }) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// streamHandler is a route body operating on one resolved stream handle.
type streamHandler func(w http.ResponseWriter, r *http.Request, hs *ksir.StreamHandle)

// named resolves the {name} path segment into a hub handle.
func (s *Server) named(fn streamHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hs, err := s.hub.Get(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		fn(w, r, hs)
	}
}

func (s *Server) handlePosts(w http.ResponseWriter, r *http.Request, hs *ksir.StreamHandle) {
	var raw json.RawMessage
	if !decodeBody(w, r, &raw) {
		return
	}
	// Accept either a single object or an array.
	var posts []apiv1.Post
	if strings.HasPrefix(strings.TrimSpace(string(raw)), "[") {
		if err := json.Unmarshal(raw, &posts); err != nil {
			httpError(w, http.StatusBadRequest, apiv1.CodeBadRequest, "invalid post array: %v", err)
			return
		}
	} else {
		var one apiv1.Post
		if err := json.Unmarshal(raw, &one); err != nil {
			httpError(w, http.StatusBadRequest, apiv1.CodeBadRequest, "invalid post: %v", err)
			return
		}
		posts = []apiv1.Post{one}
	}
	batch := make([]ksir.Post, len(posts))
	for i, p := range posts {
		batch[i] = ksir.Post{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}
	}
	if accepted, err := hs.AddBatchContext(r.Context(), batch); err != nil {
		// The accepted prefix stays in the stream; the envelope reports it
		// so clients resend from the rejected post, not the whole batch.
		code, status := apiv1.Classify(err)
		writeJSONStatus(w, status, apiv1.ErrorEnvelope{
			Err:      apiv1.ErrorBody{Code: code, Message: err.Error()},
			Accepted: &accepted,
		})
		return
	}
	writeJSONStatus(w, http.StatusAccepted, apiv1.AcceptedResponse{Accepted: len(posts)})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request, hs *ksir.StreamHandle) {
	var req apiv1.FlushRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := hs.FlushContext(r.Context(), req.Now); err != nil {
		writeError(w, err)
		return
	}
	st := hs.Stats()
	writeJSON(w, apiv1.FlushResponse{Active: st.Active, Now: st.Now, Bucket: st.Bucket})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, hs *ksir.StreamHandle) {
	var req apiv1.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, err := toQuery(req)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := hs.Query(r.Context(), q)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := toResponse(res)
	if req.Explain {
		if ex, err := hs.Explain(res, q); err == nil {
			resp.Explain = ex
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, hs *ksir.StreamHandle) {
	writeJSON(w, s.streamInfo(hs))
}

// handleHibernate checkpoints the stream and releases its in-memory state
// (POST /v1/streams/{name}/hibernate). The stream stays registered and
// reactivates on its next post/query/subscription; 409 persist_disabled
// without -data-dir, 409 stream_busy while subscriptions are live.
func (s *Server) handleHibernate(w http.ResponseWriter, r *http.Request, hs *ksir.StreamHandle) {
	st, err := hs.HibernateContext(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	// The state this request produced, not whatever a racing query has
	// reactivated by now.
	writeJSON(w, s.streamInfoFrom(hs, st))
}

// toQuery converts the wire query, folding parse failures into the typed
// taxonomy so they map to 400/bad_query.
func toQuery(req apiv1.QueryRequest) (ksir.Query, error) {
	q := ksir.Query{K: req.K, Keywords: req.Keywords, Vector: req.Vector, Epsilon: req.Epsilon}
	switch strings.ToLower(req.Algorithm) {
	case "", "mttd":
		q.Algorithm = ksir.MTTD
	case "mtts":
		q.Algorithm = ksir.MTTS
	case "topk":
		q.Algorithm = ksir.TopK
	default:
		return ksir.Query{}, fmt.Errorf("%w: unknown algorithm %q", ksir.ErrBadQuery, req.Algorithm)
	}
	return q, nil
}

// toResponse is the one place a ksir.Result becomes its wire form (shared
// by the query route and SSE refreshes, so the two cannot drift).
func toResponse(res ksir.Result) apiv1.QueryResponse {
	return apiv1.QueryResponse{
		Posts:     res.Posts,
		Score:     res.Score,
		Evaluated: res.Evaluated,
		Active:    res.Active,
		Bucket:    res.Bucket,
	}
}

func (s *Server) streamInfo(hs *ksir.StreamHandle) apiv1.StreamInfo {
	return s.streamInfoFrom(hs, hs.Stats())
}

// streamInfoFrom renders st, a stats reading of hs, in its wire form.
func (s *Server) streamInfoFrom(hs *ksir.StreamHandle, st ksir.StreamStats) apiv1.StreamInfo {
	opts := hs.Options() // residency-independent: hs.Stream() is nil while hibernated
	info := apiv1.StreamInfo{
		Name:          hs.Name(),
		Active:        st.Active,
		Now:           st.Now,
		Bucket:        st.Bucket,
		Subscriptions: st.Subscriptions,
		Elements:      st.Elements,
		WindowSec:     int64(opts.Window.Seconds()),
		BucketSec:     int64(opts.Bucket.Seconds()),
		Lambda:        *opts.Lambda,
		Eta:           opts.Eta,
		State:         apiv1.StateResident,
	}
	if !st.Residency.Resident {
		info.State = apiv1.StateHibernated
	}
	info.Residency = &apiv1.ResidencyInfo{
		Hibernations:     st.Residency.Hibernations,
		Activations:      st.Residency.Activations,
		LastActivationUs: st.Residency.LastActivation.Microseconds(),
		ResidentBytes:    st.Residency.ResidentBytes,
	}
	if st.Persist.Enabled {
		info.Persist = &apiv1.PersistInfo{
			WALSeq:           st.Persist.WALSeq,
			WALBytes:         st.Persist.WALBytes,
			CheckpointBucket: st.Persist.CheckpointBucket,
			Checkpoints:      st.Persist.Checkpoints,
		}
	}
	info.Pipeline = &apiv1.PipelineInfo{
		QueueDepth:    st.Pipeline.QueueDepth,
		Ops:           st.Pipeline.Ops,
		Batches:       st.Pipeline.Batches,
		MeanBatchSize: st.Pipeline.MeanBatchSize(),
		Fsyncs:        st.Pipeline.Fsyncs,
		FsyncsPerOp:   st.Pipeline.FsyncsPerOp(),
	}
	info.SSE = &apiv1.SSEInfo{}
	if c := s.sseLookup(hs.Name()); c != nil {
		info.SSE.Subscribers = c.subscribers.Load()
		info.SSE.Dropped = c.dropped.Load()
	}
	return info
}

// decodeBody decodes the request's JSON body into v. On failure it answers
// the request itself — 413 for a body over maxBodyBytes (route caps every
// body), 400 for malformed JSON — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, apiv1.CodeBadRequest, "request body over %d bytes", tooBig.Limit)
	} else {
		httpError(w, http.StatusBadRequest, apiv1.CodeBadRequest, "invalid JSON: %v", err)
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// writeJSONStatus writes a JSON body with a non-200 status; the header
// must be set before WriteHeader snapshots it.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a typed library error onto the wire envelope. Context
// cancellations surface as 499-style client disconnects; there is no one
// to answer, so the status is best-effort.
func writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		httpError(w, http.StatusServiceUnavailable, apiv1.CodeInternal, "%v", err)
		return
	}
	code, status := apiv1.Classify(err)
	httpError(w, status, code, "%v", err)
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiv1.ErrorEnvelope{Err: apiv1.ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
