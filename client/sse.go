package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/connector/backoff"
	"github.com/social-streams/ksir/connector/frame"
)

// Event is one Server-Sent Event from a standing query: a refresh of the
// k most representative posts as of Bucket, or the final "closed"
// notification when the stream is closed out of the hub.
type Event struct {
	// Type is the SSE event name: "refresh", or "closed" when the stream
	// was closed server-side (the event stream ends after it and
	// Subscribe returns nil).
	Type string
	// Bucket is the ingested-bucket sequence number the refresh observed
	// (the SSE id field — sticky, per the SSE spec, so the final "closed"
	// event, which carries none, repeats the last refresh's). With
	// OnlyOnChange, consecutive Buckets can jump: suppressed refreshes
	// leave no event.
	Bucket int64
	// Result is the refreshed query answer; Result.Bucket equals Bucket.
	Result apiv1.QueryResponse
}

// ErrStopSubscription is the sentinel a Subscribe handler returns to end
// the subscription cleanly (Subscribe then returns nil).
var ErrStopSubscription = errors.New("ksir client: stop subscription")

// Subscribe registers a standing query on the server and streams its
// refreshes to fn until ctx is cancelled (returns ctx.Err()), fn returns
// an error (returned as-is, except ErrStopSubscription which maps to
// nil), the stream is closed server-side (fn sees a final "closed" event
// and Subscribe returns nil), or the connection breaks.
//
// Subscribe makes exactly one connection attempt and returns when it
// ends; use SubscribeResume for a consumer that must survive transport
// failures. Subscribe blocks; run it in its own goroutine when consuming
// alongside other work.
func (s *Stream) Subscribe(ctx context.Context, req SubscribeRequest, fn func(Event) error) error {
	if fn == nil {
		return fmt.Errorf("ksir client: nil handler")
	}
	return s.subscribeOnce(ctx, req, -1, fn)
}

// SubscribeResume is Subscribe with automatic reconnect and resume: when
// the event stream breaks — mid-stream disconnect, transport error,
// server restart, 5xx — it backs off per pol and resubscribes with the
// SSE Last-Event-ID header set to the bucket seq of the last refresh it
// delivered. The server replays the current answer immediately when
// buckets were ingested while the consumer was away (a catch-up refresh)
// and suppresses buckets at or below the presented cursor, so across any
// number of reconnects fn observes each bucket seq at most once.
//
// The attempt counter resets whenever a connection delivers at least one
// event, so an occasional drop retries at pol's initial delay while a
// hard outage walks the full exponential curve.
//
// SubscribeResume returns when ctx is cancelled (ctx.Err()), fn returns
// an error (returned as-is; ErrStopSubscription maps to nil), the stream
// is closed server-side (fn sees the final "closed" event, returns nil),
// the server rejects the subscription outright with a non-retryable
// *APIError (4xx — e.g. a bad query or an unknown stream), or a refresh
// exceeds the 4 MiB event cap (an error wrapping frame.ErrOversized:
// resuming would be sent the same refresh again). It never returns on
// transport errors alone: bound it with ctx.
func (s *Stream) SubscribeResume(ctx context.Context, req SubscribeRequest, pol backoff.Policy, fn func(Event) error) error {
	if fn == nil {
		return fmt.Errorf("ksir client: nil handler")
	}
	lastID := int64(-1)
	attempt := 0
	for {
		var progressed, terminal bool
		err := s.subscribeOnce(ctx, req, lastID, func(ev Event) error {
			progressed = true
			switch ev.Type {
			case "closed":
				// The stream is gone server-side; reconnecting would only
				// yield unknown-stream errors.
				terminal = true
			case "refresh":
				if ev.Bucket <= lastID {
					// The server already filters resumed duplicates; keep
					// the contract client-side too (older servers).
					return nil
				}
			}
			err := fn(ev)
			if ev.Type == "refresh" && ev.Bucket > lastID {
				lastID = ev.Bucket
			}
			if err != nil {
				terminal = true // handler decisions are permanent
			}
			return err
		})
		if terminal || ctx.Err() != nil {
			return err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status < 500 {
			return err // the server refused the subscription; retrying cannot help
		}
		if errors.Is(err, frame.ErrOversized) {
			return err // resuming would be sent the same oversized refresh again
		}
		// Anything else — a clean EOF from a dropped connection (err ==
		// nil), a transport error, a 5xx — is the unreliable half of the
		// system: back off and resubscribe from lastID.
		if progressed {
			attempt = 0
		}
		if serr := pol.Sleep(ctx, attempt); serr != nil {
			return serr
		}
		attempt++
	}
}

// subscribeOnce makes one subscription connection and consumes it to the
// end. lastID ≥ 0 resumes: it is sent as the SSE Last-Event-ID header and
// the server replays/suppresses accordingly. A clean end of stream
// returns nil — the caller decides whether that is final (Subscribe) or a
// signal to reconnect (SubscribeResume).
func (s *Stream) subscribeOnce(ctx context.Context, req SubscribeRequest, lastID int64, fn func(Event) error) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.c.base+s.path+"/subscribe?"+req.query().Encode(), nil)
	if err != nil {
		return fmt.Errorf("ksir client: %w", err)
	}
	httpReq.Header.Set("Accept", "text/event-stream")
	if lastID >= 0 {
		httpReq.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := s.c.hc.Do(httpReq)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("ksir client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}

	fr := frame.NewSSE(resp.Body, maxEventBytes)
	for {
		fev, err := fr.Next()
		switch {
		case err == nil:
		case errors.Is(err, frame.ErrMalformed):
			continue // lines that are no SSE field: ignored, as the spec says
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, io.EOF):
			return nil // ended between events, or mid-event: nothing to deliver
		default:
			return fmt.Errorf("ksir client: reading event stream: %w", err)
		}
		ev := Event{Type: fev.Type}
		ev.Bucket, _ = strconv.ParseInt(fev.ID, 10, 64)
		if err := json.Unmarshal(fev.Data, &ev.Result); err != nil {
			return fmt.Errorf("ksir client: bad event payload: %w", err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, ErrStopSubscription) {
				return nil
			}
			return err
		}
	}
}

// maxEventBytes caps one event's payload. A refresh over it ends the
// subscription with an error wrapping frame.ErrOversized — reconnecting
// would only be sent the same refresh again.
const maxEventBytes = 1 << 22
