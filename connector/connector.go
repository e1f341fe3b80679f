// Package connector ingests a live firehose — an SSE or JSONL-over-HTTP
// feed of posts — into a Hub stream. This is the paper's actual input
// shape (§1: a continuous social stream) that the synthetic generators
// approximate: every benchmark so far fed the engine from a closed loop,
// while a real feed arrives on its own clock, stalls, disconnects, and
// replays.
//
// The connector owns the unreliable half of that contract:
//
//   - Reconnect with jittered exponential backoff (connector/backoff),
//     resuming from the last received event id via the standard SSE
//     Last-Event-ID header.
//   - Bounded buffering between the network reader and the ingest path,
//     with explicit drop accounting — when the stream cannot keep up, the
//     oldest buffered events are shed and counted, never silently.
//   - Dedupe on resume: upstreams replay events at and around the resume
//     cursor; a sliding window of recently seen post IDs guarantees a
//     replayed event is never ingested twice (the stream's own in-window
//     duplicate rejection is the second line of defense).
//   - Time-bucketed batching: buffered posts are grouped so one
//     AddBatchContext call never straddles a stream bucket boundary, and
//     each batch rides one commit (one WAL append, one shared fsync).
//
// Malformed, oversized and truncated frames are counted and skipped —
// a firehose consumer that dies on one bad frame is not a consumer.
// Everything is observable through internal/metrics (ksir_connector_*)
// and per-batch internal/trace spans.
package connector

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ksir "github.com/social-streams/ksir"
	"github.com/social-streams/ksir/connector/backoff"
)

// Format selects the upstream wire format.
type Format int

const (
	// SSE is Server-Sent Events (text/event-stream): events carry an id
	// for Last-Event-ID resume.
	SSE Format = iota
	// JSONL is newline-delimited JSON objects over a streaming HTTP
	// response. There is no protocol-level event id; the resume cursor
	// advances over the decoded post IDs, and a cooperating upstream may
	// honor it from the same Last-Event-ID header.
	JSONL
)

// ParseFormat maps "sse"/"jsonl" to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "sse":
		return SSE, nil
	case "jsonl", "ndjson":
		return JSONL, nil
	}
	return 0, fmt.Errorf("connector: unknown format %q (want sse or jsonl)", s)
}

// Event is one upstream frame, before mapping to a post.
type Event struct {
	// ID is the SSE id field ("" when absent, and for JSONL frames).
	ID string
	// Type is the SSE event name ("" for unnamed events and JSONL).
	Type string
	// Data is the raw event payload (joined data lines for SSE, one line
	// for JSONL).
	Data []byte
}

// MapFunc converts an upstream event into a post. Returning ErrSkip drops
// the event without counting it as malformed (heartbeats, non-post event
// types); any other error counts it as malformed and skips it.
type MapFunc func(Event) (ksir.Post, error)

// ErrSkip is the sentinel a MapFunc returns for events that are valid but
// not posts.
var ErrSkip = errors.New("connector: skip event")

// DecodePost is the default MapFunc: the event data is a JSON post
// {"id":..,"time":..,"text":"..","refs":[..]} (api/v1 Post field names).
func DecodePost(ev Event) (ksir.Post, error) {
	var p wirePost
	if err := p.unmarshal(ev.Data); err != nil {
		return ksir.Post{}, err
	}
	return ksir.Post{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}, nil
}

// Config configures a Connector. URL is required; everything else has
// serviceable defaults.
type Config struct {
	// URL is the firehose endpoint.
	URL string
	// Format is the wire format (default SSE).
	Format Format
	// HTTPClient overrides http.DefaultClient (timeouts must not apply to
	// the streaming body; prefer transport-level dial timeouts).
	HTTPClient *http.Client
	// Header is merged into every connect request (auth tokens etc.).
	Header http.Header
	// Backoff is the reconnect policy (zero value = backoff defaults).
	Backoff backoff.Policy
	// LastEventID seeds the resume cursor, resuming a previous
	// connector's position across process restarts.
	LastEventID string
	// MaxEventBytes caps one event's payload (default 1 MiB). Larger
	// frames are counted as oversized and skipped without disconnecting.
	MaxEventBytes int
	// Buffer is the bounded event buffer between the network reader and
	// the ingest path (default 1024). When full, the oldest buffered
	// event is dropped and counted.
	Buffer int
	// MaxBatch caps one AddBatch call (default 256).
	MaxBatch int
	// BatchWindow is how long a partial batch may wait for more events
	// before it is flushed to the stream (default 25ms).
	BatchWindow time.Duration
	// DedupeWindow is how many recently seen post IDs are remembered to
	// suppress replayed events across reconnect/resume (default 8192).
	DedupeWindow int
	// Map converts events to posts (default DecodePost).
	Map MapFunc
	// Logger receives reconnect and skip warnings (nil = slog.Default).
	Logger *slog.Logger
}

func (cfg Config) withDefaults() Config {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxEventBytes <= 0 {
		cfg.MaxEventBytes = 1 << 20
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 25 * time.Millisecond
	}
	if cfg.DedupeWindow <= 0 {
		cfg.DedupeWindow = 8192
	}
	if cfg.Map == nil {
		cfg.Map = DecodePost
	}
	return cfg
}

// Stats is a point-in-time snapshot of one connector's counters. The
// conservation law Events == Ingested + Duplicates + Rejected + Dropped +
// Malformed holds once the connector is idle (in flight, events may sit in
// the buffer or a pending batch).
type Stats struct {
	// Events counts complete frames received from the upstream.
	Events int64
	// Ingested counts posts accepted by the stream.
	Ingested int64
	// Batches counts AddBatch calls (Ingested/Batches = realized
	// batching).
	Batches int64
	// Duplicates counts events suppressed by the resume dedupe window.
	Duplicates int64
	// Rejected counts posts the stream refused (out-of-order, duplicate
	// in window) — skipped individually, never aborting the batch rest.
	Rejected int64
	// Dropped counts events shed from the full bounded buffer.
	Dropped int64
	// Malformed counts undecodable frames and mapper failures (truncated
	// frames are re-fetched via resume, not counted here).
	Malformed int64
	// Oversized counts frames over MaxEventBytes, skipped in-stream.
	Oversized int64
	// Connects counts connection attempts; Reconnects the ones after the
	// first (including failed attempts).
	Connects   int64
	Reconnects int64
	// ResumeGaps counts reconnects whose first event id skipped past the
	// cursor (upstream lost events we can never fetch); ResumeMissed sums
	// the skipped ids. Both need numeric event ids.
	ResumeGaps   int64
	ResumeMissed int64
	// LastEventID is the current resume cursor.
	LastEventID string
}

// Connector consumes one firehose into one stream. Create with New, drive
// with Run.
type Connector struct {
	cfg Config
	hs  *ksir.Stream
	buf chan Event

	cursorMu sync.Mutex
	cursor   string

	// seen is the dedupe window: ring of the last DedupeWindow post IDs.
	seenMu   sync.Mutex
	seenSet  map[int64]struct{}
	seenRing []int64
	seenAt   int

	events, ingested, batches     atomic.Int64
	duplicates, rejected, dropped atomic.Int64
	malformed, oversized          atomic.Int64
	connects, reconnects          atomic.Int64
	resumeGaps, resumeMissed      atomic.Int64
}

// New builds a connector feeding hs from cfg.URL. The stream must
// stay open for the connector's lifetime; Run returns once ctx ends.
func New(cfg Config, hs *ksir.Stream) (*Connector, error) {
	if cfg.URL == "" {
		return nil, errors.New("connector: Config.URL is required")
	}
	if hs == nil {
		return nil, errors.New("connector: nil stream")
	}
	cfg = cfg.withDefaults()
	c := &Connector{
		cfg:      cfg,
		hs:       hs,
		buf:      make(chan Event, cfg.Buffer),
		seenSet:  make(map[int64]struct{}, cfg.DedupeWindow),
		seenRing: make([]int64, 0, cfg.DedupeWindow),
		cursor:   cfg.LastEventID,
	}
	return c, nil
}

// Stats snapshots the connector's counters.
func (c *Connector) Stats() Stats {
	return Stats{
		Events:       c.events.Load(),
		Ingested:     c.ingested.Load(),
		Batches:      c.batches.Load(),
		Duplicates:   c.duplicates.Load(),
		Rejected:     c.rejected.Load(),
		Dropped:      c.dropped.Load(),
		Malformed:    c.malformed.Load(),
		Oversized:    c.oversized.Load(),
		Connects:     c.connects.Load(),
		Reconnects:   c.reconnects.Load(),
		ResumeGaps:   c.resumeGaps.Load(),
		ResumeMissed: c.resumeMissed.Load(),
		LastEventID:  c.LastEventID(),
	}
}

// LastEventID returns the resume cursor — persist it to resume a future
// connector (Config.LastEventID) across process restarts.
func (c *Connector) LastEventID() string {
	c.cursorMu.Lock()
	defer c.cursorMu.Unlock()
	return c.cursor
}

func (c *Connector) setCursor(id string) {
	c.cursorMu.Lock()
	c.cursor = id
	c.cursorMu.Unlock()
}

func (c *Connector) log() *slog.Logger {
	if c.cfg.Logger != nil {
		return c.cfg.Logger
	}
	return slog.Default()
}

// Run consumes the firehose until ctx is done, then flushes any pending
// batch and returns ctx.Err(). It never returns early: connection
// failures, bad frames and upstream restarts are absorbed by
// reconnect/backoff and the skip counters.
func (c *Connector) Run(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.ingestLoop()
	}()
	c.readLoop(ctx)
	close(c.buf)
	<-done
	return ctx.Err()
}

// readLoop owns the connection: connect (with the resume cursor), consume
// frames into the bounded buffer, and on any end — error, EOF, upstream
// close — reconnect with backoff. An attempt that delivered at least one
// event resets the backoff clock.
func (c *Connector) readLoop(ctx context.Context) {
	attempt := 0
	for ctx.Err() == nil {
		if c.connects.Add(1) > 1 {
			c.reconnects.Add(1)
			obsReconnects.Inc()
		}
		n, err := c.consumeOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			c.log().Debug("connector: connection ended", "url", c.cfg.URL, "events", n, "error", err)
		}
		if n > 0 {
			attempt = 0
		}
		if c.cfg.Backoff.Sleep(ctx, attempt) != nil {
			return
		}
		attempt++
	}
}

// consumeOnce dials the upstream once and consumes its stream until it
// ends, returning how many complete events were delivered.
func (c *Connector) consumeOnce(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.URL, nil)
	if err != nil {
		return 0, err
	}
	if c.cfg.Format == SSE {
		req.Header.Set("Accept", "text/event-stream")
	} else {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	req.Header.Set("Cache-Control", "no-cache")
	if cur := c.LastEventID(); cur != "" {
		req.Header.Set("Last-Event-ID", cur)
	}
	for k, vs := range c.cfg.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("connector: upstream status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}

	resumedFrom := c.LastEventID()
	var fr frameReader
	if c.cfg.Format == SSE {
		fr = newSSEReader(resp.Body, c.cfg.MaxEventBytes, c.noteOversized, c.noteMalformed)
	} else {
		fr = newJSONLReader(resp.Body, c.cfg.MaxEventBytes, c.noteOversized)
	}
	n := 0
	for {
		ev, err := fr.Next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		c.events.Add(1)
		obsEvents.Inc()
		if n == 0 && resumedFrom != "" {
			c.noteResumeGap(resumedFrom, ev.ID)
		}
		n++
		if ev.ID != "" {
			c.setCursor(ev.ID)
		}
		c.push(ev)
	}
}

// push delivers one event into the bounded buffer, shedding the oldest
// buffered event (counted) when full — the stream keeps up or the loss is
// explicit, the reader never blocks the socket into upstream timeouts.
func (c *Connector) push(ev Event) {
	for {
		select {
		case c.buf <- ev:
			return
		default:
		}
		select {
		case <-c.buf:
			c.dropped.Add(1)
			obsDropped.Inc()
		default:
		}
	}
}

// noteResumeGap compares the first event id after a resume against the
// cursor: numeric ids that jump past cursor+1 mean the upstream could not
// replay everything we missed — events lost for good, worth an alert.
func (c *Connector) noteResumeGap(cursor, first string) {
	cur, err1 := strconv.ParseInt(cursor, 10, 64)
	got, err2 := strconv.ParseInt(first, 10, 64)
	if err1 != nil || err2 != nil {
		return
	}
	if got > cur+1 {
		c.resumeGaps.Add(1)
		c.resumeMissed.Add(got - cur - 1)
		obsResumeGaps.Inc()
		obsResumeMissed.Add(uint64(got - cur - 1))
		c.log().Warn("connector: resume gap — upstream skipped events",
			"stream", c.hs.Name(), "cursor", cur, "first", got, "missed", got-cur-1)
	}
}

func (c *Connector) noteOversized() {
	c.oversized.Add(1)
	obsOversized.Inc()
}

func (c *Connector) noteMalformed() {
	c.malformed.Add(1)
	obsMalformed.Inc()
}

// seenBefore records id in the dedupe window, reporting whether it was
// already there. The window is a FIFO ring: the newest DedupeWindow ids
// are remembered, which covers resume replays (bounded overlap around the
// cursor) without growing with the stream.
func (c *Connector) seenBefore(id int64) bool {
	c.seenMu.Lock()
	defer c.seenMu.Unlock()
	if _, ok := c.seenSet[id]; ok {
		return true
	}
	if len(c.seenRing) < cap(c.seenRing) {
		c.seenRing = append(c.seenRing, id)
	} else {
		delete(c.seenSet, c.seenRing[c.seenAt])
		c.seenRing[c.seenAt] = id
		c.seenAt = (c.seenAt + 1) % cap(c.seenRing)
	}
	c.seenSet[id] = struct{}{}
	return false
}
