// Package apiv1 defines the wire contract of the k-SIR service's /v1 HTTP
// API: request/response bodies, the structured error envelope, and the
// two-way mapping between the library's typed errors (ksir.Err*) and wire
// error codes / HTTP status codes. Both the server (internal/server) and
// the Go SDK (client) build on it, so a round trip preserves error
// identity: errors.Is(err, ksir.ErrOutOfOrder) holds on the client side
// exactly when it held on the server side.
//
// Routes (all stream-scoped routes 404 with CodeUnknownStream for an
// unregistered name):
//
//	POST   /v1/streams                      CreateStreamRequest → 201 StreamInfo
//	GET    /v1/streams                      → ListStreamsResponse
//	DELETE /v1/streams/{name}              → 204
//	POST   /v1/streams/{name}/posts        Post or [Post,...] → 202 AcceptedResponse
//	POST   /v1/streams/{name}/flush        FlushRequest → FlushResponse
//	POST   /v1/streams/{name}/query        QueryRequest → QueryResponse
//	GET    /v1/streams/{name}/stats        → StreamInfo
//	GET    /v1/streams/{name}/subscribe    → text/event-stream (SSE)
//	POST   /v1/streams/{name}/checkpoint   → StreamInfo (durable servers;
//	       409 persist_disabled without -data-dir)
//	POST   /v1/streams/{name}/hibernate    → StreamInfo (durable servers;
//	       409 persist_disabled without -data-dir, 409 stream_busy while
//	       standing queries are registered)
//
// SSE: each refresh of the standing query is one event
//
//	event: refresh
//	id: <bucket sequence number>
//	data: <QueryResponse JSON>
//
// The id field and the QueryResponse's "bucket" field both carry the
// bucket sequence the refresh was computed at (the snapshot-visibility
// contract in wire terms); with only_changed=true, refreshes whose result
// set is unchanged are suppressed, so consecutive ids can jump.
package apiv1

import (
	"errors"
	"net/http"

	ksir "github.com/social-streams/ksir"
)

// Post is the wire form of one post.
type Post struct {
	ID   int64   `json:"id"`
	Time int64   `json:"time"`
	Text string  `json:"text"`
	Refs []int64 `json:"refs,omitempty"`
}

// CreateStreamRequest registers a new stream. Zero-valued fields inherit
// the server's defaults. Lambda is a pointer so that the pure-influence
// setting λ=0 is distinguishable from "unset".
type CreateStreamRequest struct {
	Name      string   `json:"name"`
	WindowSec int64    `json:"window_sec,omitempty"`
	BucketSec int64    `json:"bucket_sec,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	Eta       float64  `json:"eta,omitempty"`
}

// Stream residency states (StreamInfo.State). Hibernated streams stay
// fully operational over the wire: their first post, query or
// subscription transparently reactivates them.
const (
	StateResident   = "resident"
	StateHibernated = "hibernated"
)

// StreamInfo describes one stream: its configuration and its counters as
// of the last published bucket. Persist is present only on durable
// deployments (a server started with -data-dir). For a hibernated stream
// the engine counters (Active, Now, Bucket, Elements) are the values
// captured at hibernation — or zero for a cold-recovered stream never yet
// touched — and stats/list requests never reactivate it.
type StreamInfo struct {
	Name          string  `json:"name"`
	Active        int     `json:"active"`
	Now           int64   `json:"now"`
	Bucket        int64   `json:"bucket"`
	Subscriptions int     `json:"subscriptions"`
	Elements      int64   `json:"elements"`
	WindowSec     int64   `json:"window_sec"`
	BucketSec     int64   `json:"bucket_sec"`
	Lambda        float64 `json:"lambda"`
	Eta           float64 `json:"eta"`
	// State is resident or hibernated (see the State* constants).
	State     string         `json:"state"`
	Residency *ResidencyInfo `json:"residency,omitempty"`
	Persist   *PersistInfo   `json:"persist,omitempty"`
	Pipeline  *PipelineInfo  `json:"pipeline,omitempty"`
	SSE       *SSEInfo       `json:"sse,omitempty"`
}

// SSEInfo reports a stream's live SSE subscription counters (served by
// internal/server; absent from embedding deployments without the server).
type SSEInfo struct {
	// Subscribers is the number of currently connected SSE consumers.
	Subscribers int64 `json:"subscribers"`
	// Dropped counts refresh events shed by drop-oldest backpressure over
	// the server's lifetime: a consumer fell more than the event buffer
	// behind and its oldest pending refresh was replaced by a newer one
	// (the standing query is a state feed — the latest refresh wins).
	Dropped int64 `json:"dropped"`
}

// ResidencyInfo reports a stream's hot/cold transition counters (the wire
// form of ksir.ResidencyStats).
type ResidencyInfo struct {
	// Hibernations and Activations count residency transitions since the
	// server started.
	Hibernations int64 `json:"hibernations"`
	Activations  int64 `json:"activations"`
	// LastActivationUs is the cost of the most recent reactivation
	// (checkpoint load + WAL tail replay) in microseconds, 0 before the
	// first one.
	LastActivationUs int64 `json:"last_activation_us"`
	// ResidentBytes approximates the stream's in-memory footprint
	// (0 while hibernated).
	ResidentBytes int64 `json:"resident_bytes"`
}

// PersistInfo reports a durable stream's WAL and checkpoint counters (the
// wire form of ksir.PersistStats).
type PersistInfo struct {
	// WALSeq is the last durable operation sequence number; it grows
	// monotonically across checkpoints and restarts.
	WALSeq uint64 `json:"wal_seq"`
	// WALBytes is the live WAL segment size (0 right after a checkpoint).
	WALBytes int64 `json:"wal_bytes"`
	// CheckpointBucket is the bucket sequence covered by the latest
	// checkpoint, -1 if none has been taken yet.
	CheckpointBucket int64 `json:"checkpoint_bucket"`
	// Checkpoints counts checkpoints taken since the server started.
	Checkpoints int64 `json:"checkpoints"`
}

// PipelineInfo reports a stream's commit-pipeline counters (the wire form
// of ksir.PipelineStats): how many write operations are queued and how
// much coalescing group commit achieved.
type PipelineInfo struct {
	// QueueDepth is the number of write operations queued behind the
	// committing caller at the instant of the stats call.
	QueueDepth int `json:"queue_depth"`
	// Ops counts write operations committed over the stream's lifetime.
	Ops int64 `json:"ops"`
	// Batches counts commit batches; Ops/Batches is the mean batch size.
	Batches int64 `json:"batches"`
	// MeanBatchSize is the average number of operations per commit batch
	// (0 before the first commit).
	MeanBatchSize float64 `json:"mean_batch_size"`
	// Fsyncs counts WAL fsyncs issued for the stream (0 without -data-dir).
	Fsyncs int64 `json:"fsyncs"`
	// FsyncsPerOp is Fsyncs/Ops — the amortized durability cost; 1.0 is
	// one fsync per operation (a lone producer at fsync=always), and it
	// falls toward 1/MeanBatchSize as concurrent producers coalesce.
	FsyncsPerOp float64 `json:"fsyncs_per_op"`
}

// ListStreamsResponse is the GET /v1/streams body.
type ListStreamsResponse struct {
	Streams []StreamInfo `json:"streams"`
}

// AcceptedResponse reports how many posts of a batch were ingested.
type AcceptedResponse struct {
	Accepted int `json:"accepted"`
}

// FlushRequest advances the stream clock.
type FlushRequest struct {
	Now int64 `json:"now"`
}

// FlushResponse reports the stream state after a flush.
type FlushResponse struct {
	Active int   `json:"active"`
	Now    int64 `json:"now"`
	Bucket int64 `json:"bucket"`
}

// QueryRequest is the wire form of a k-SIR query.
type QueryRequest struct {
	K        int             `json:"k"`
	Keywords []string        `json:"keywords,omitempty"`
	Vector   map[int]float64 `json:"vector,omitempty"`
	Epsilon  float64         `json:"epsilon,omitempty"`
	// Algorithm is mttd (default) | mtts | topk.
	Algorithm string `json:"algorithm,omitempty"`
	Explain   bool   `json:"explain,omitempty"`
}

// QueryResponse carries the result and optional explanations. Bucket is
// the ingested-bucket sequence number the query observed (snapshot
// visibility: all other fields are consistent with exactly that bucket).
type QueryResponse struct {
	Posts     []ksir.Post        `json:"posts"`
	Score     float64            `json:"score"`
	Evaluated int                `json:"evaluated"`
	Active    int                `json:"active"`
	Bucket    int64              `json:"bucket"`
	Explain   []ksir.Explanation `json:"explain,omitempty"`
}

// ErrorBody is the structured error every non-2xx response carries.
type ErrorBody struct {
	// Code is one of the Code* constants — the stable, programmatic key.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON shape of an error response:
//
//	{"error": {"code": "out_of_order", "message": "..."}}
type ErrorEnvelope struct {
	Err ErrorBody `json:"error"`
	// Accepted is set on partially applied batch ingests: how many posts
	// of the batch were accepted before the rejected one. The accepted
	// prefix stays in the stream (visible after its bucket boundary); the
	// rejected post is the batch's element at index Accepted — fix or
	// drop it and resend the batch from that index.
	Accepted *int `json:"accepted,omitempty"`
}

// Wire error codes. Each corresponds to one sentinel of the library's
// error taxonomy (plus bad_request and internal for transport-level
// failures that never reached the library).
const (
	CodeBadRequest      = "bad_request"
	CodeBadOptions      = "bad_options"
	CodeBadPost         = "bad_post"
	CodeOutOfOrder      = "out_of_order"
	CodeBadQuery        = "bad_query"
	CodeBadSubscription = "bad_subscription"
	CodeUnknownStream   = "unknown_stream"
	CodeStreamExists    = "stream_exists"
	CodeStreamClosed    = "stream_closed"
	// CodeStreamBusy: a residency transition refused while the stream is
	// in use (hibernating with standing queries registered).
	CodeStreamBusy = "stream_busy"
	CodeNotActive  = "not_active"
	// CodeModelVersion: an on-disk artifact (model file, checkpoint, WAL)
	// from an incompatible format version or a different model.
	CodeModelVersion = "model_version"
	// CodePersist: a durability failure — the operation may have been
	// applied in memory but could not be made durable.
	CodePersist = "persist_failure"
	// CodePersistDisabled: a durability operation (e.g. forcing a
	// checkpoint) on a server running without -data-dir.
	CodePersistDisabled = "persist_disabled"
	CodeInternal        = "internal"
)

// errClass ties together a sentinel, its wire code and its HTTP status.
type errClass struct {
	sentinel error
	code     string
	status   int
}

var errClasses = []errClass{
	{ksir.ErrBadOptions, CodeBadOptions, http.StatusBadRequest},
	{ksir.ErrBadPost, CodeBadPost, http.StatusBadRequest},
	{ksir.ErrOutOfOrder, CodeOutOfOrder, http.StatusConflict},
	{ksir.ErrBadQuery, CodeBadQuery, http.StatusBadRequest},
	{ksir.ErrBadSubscription, CodeBadSubscription, http.StatusBadRequest},
	{ksir.ErrUnknownStream, CodeUnknownStream, http.StatusNotFound},
	{ksir.ErrStreamExists, CodeStreamExists, http.StatusConflict},
	{ksir.ErrStreamClosed, CodeStreamClosed, http.StatusGone},
	{ksir.ErrStreamBusy, CodeStreamBusy, http.StatusConflict},
	{ksir.ErrNotActive, CodeNotActive, http.StatusConflict},
	{ksir.ErrModelVersion, CodeModelVersion, http.StatusInternalServerError},
	{ksir.ErrPersist, CodePersist, http.StatusInternalServerError},
	{ksir.ErrPersistDisabled, CodePersistDisabled, http.StatusConflict},
}

// Classify maps a library error to its wire code and HTTP status. Errors
// outside the taxonomy classify as internal/500.
func Classify(err error) (code string, status int) {
	for _, c := range errClasses {
		if errors.Is(err, c.sentinel) {
			return c.code, c.status
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// Sentinel maps a wire code back to the library sentinel it stands for,
// so SDK callers can errors.Is against ksir.Err* across the wire. Unknown
// codes (including internal and bad_request) return nil.
func Sentinel(code string) error {
	for _, c := range errClasses {
		if c.code == code {
			return c.sentinel
		}
	}
	return nil
}
