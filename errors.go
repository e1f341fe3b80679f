package ksir

import "errors"

// The package's error taxonomy. Every error returned by the public API
// wraps exactly one of these sentinels, so callers branch with errors.Is
// instead of matching message strings, and the HTTP layer can map each
// class to a status code (see api/v1):
//
//	res, err := st.Query(ctx, q)
//	switch {
//	case errors.Is(err, ksir.ErrBadQuery):     // caller bug: fix the query
//	case errors.Is(err, ksir.ErrOutOfOrder):   // producer bug: clock skew
//	}
//
// Context errors (context.Canceled, context.DeadlineExceeded) are returned
// unwrapped from cancelled queries.
var (
	// ErrBadOptions reports invalid stream configuration (New, Hub.Create).
	ErrBadOptions = errors.New("ksir: invalid options")
	// ErrBadPost reports a post that can never be ingested: non-positive
	// timestamp, duplicate ID, or a malformed bucket.
	ErrBadPost = errors.New("ksir: invalid post")
	// ErrOutOfOrder reports a timestamp-ordering violation: a post older
	// than the stream's last accepted time, or a Flush into the past.
	ErrOutOfOrder = errors.New("ksir: out of order")
	// ErrBadQuery reports an unanswerable query: K ≤ 0, no keywords or
	// vector, out-of-range topics or weights, unknown algorithm, or
	// keywords entirely outside the model vocabulary.
	ErrBadQuery = errors.New("ksir: bad query")
	// ErrBadSubscription reports an invalid standing-query registration.
	ErrBadSubscription = errors.New("ksir: bad subscription")
	// ErrUnknownStream reports a Hub lookup of a name that is not
	// registered (or was already closed).
	ErrUnknownStream = errors.New("ksir: unknown stream")
	// ErrStreamExists reports a Hub.Create/Adopt of a name already in use.
	ErrStreamExists = errors.New("ksir: stream already exists")
	// ErrStreamClosed reports an operation on a stream handle whose stream
	// has been closed out of the Hub.
	ErrStreamClosed = errors.New("ksir: stream closed")
	// ErrStreamBusy reports a residency transition that cannot proceed
	// while the stream is in use — hibernating a stream with standing
	// queries registered (unsubscribe them first; subscriptions live in
	// memory only and would be silently dropped by a hibernation).
	ErrStreamBusy = errors.New("ksir: stream busy")
	// ErrNotActive reports a post that is no longer in the sliding window
	// (e.g. Explain after further ingestion expired it).
	ErrNotActive = errors.New("ksir: post no longer active")
	// ErrModelVersion reports an on-disk artifact — model file, checkpoint,
	// WAL — written by an incompatible format version, or persisted stream
	// state being opened against a different model than it was built with
	// or by a build whose topic sampler infers different vectors from the
	// same text (the directory is left untouched: re-ingest its source).
	ErrModelVersion = errors.New("ksir: unsupported format version")
	// ErrPersist reports a durability failure: the in-memory operation may
	// have been applied, but it could not be made durable (WAL append or
	// checkpoint write failed), or persisted state could not be recovered.
	ErrPersist = errors.New("ksir: persistence error")
	// ErrPersistDisabled reports a durability operation (e.g.
	// StreamHandle.Checkpoint) on a stream that has no persistence — a Hub
	// built with NewHub instead of OpenHub.
	ErrPersistDisabled = errors.New("ksir: persistence not enabled")
)
