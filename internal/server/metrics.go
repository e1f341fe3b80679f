package server

import (
	"net/http"
	"sync/atomic"
	"time"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/internal/metrics"
)

// routeNames enumerates the label values of the per-route HTTP families.
// Fixed at registration: the route label is the mux pattern's logical name,
// never a request path, so cardinality cannot grow with traffic.
var routeNames = []string{
	"create_stream", "list_streams", "close_stream",
	"posts", "flush", "query", "stats", "subscribe",
	"checkpoint", "hibernate", "healthz", "metrics",
	"debug_traces",
}

// HTTP/SSE observability (DESIGN.md §12). Process-global like every other
// registered family: several Servers in one process (tests) share them.
var (
	obsHTTPRequests = metrics.NewCounterVec("ksir_http_requests_total",
		"HTTP requests served, by route.", "route", routeNames...)
	obsHTTPDuration = metrics.NewDurationHistogramVec("ksir_http_request_duration_seconds",
		"HTTP request latency by route (for subscribe: SSE connection lifetime).",
		"route", routeNames, metrics.DefBuckets...)
	obsHTTPInFlight = metrics.NewGauge("ksir_http_requests_in_flight",
		"HTTP requests currently being served (SSE connections included).")

	obsSSESubscribers = metrics.NewGauge("ksir_sse_subscribers",
		"Currently connected SSE subscribers.")
	obsSSEDropped = metrics.NewCounter("ksir_sse_dropped_total",
		"SSE refresh events shed by drop-oldest backpressure (consumer fell behind).")
)

// route wraps a handler with the per-route request counter, latency
// histogram and the in-flight gauge, plus — for the routes in
// tracedRoutes — the traceparent-propagating span recorder middleware
// (trace.go). It also caps the request body at maxBodyBytes. name must be
// one of routeNames.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := obsHTTPRequests.With(name)
	dur := obsHTTPDuration.With(name)
	traced := tracedRoutes[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		obsHTTPInFlight.Inc()
		if traced {
			s.serveTraced(name, h, w, r)
		} else {
			h(w, r)
		}
		obsHTTPInFlight.Dec()
		reqs.Inc()
		dur.ObserveSince(start)
	}
}

// sseCounters is one stream's server-side SSE accounting. It lives on the
// Server (not the stream): subscriptions are a wire concern, and the
// counters must survive the stream's residency transitions.
type sseCounters struct {
	subscribers atomic.Int64
	dropped     atomic.Int64
}

// sseFor returns (creating if needed) the stream's SSE counters.
func (s *Server) sseFor(name string) *sseCounters {
	s.sseMu.Lock()
	defer s.sseMu.Unlock()
	c, ok := s.sse[name]
	if !ok {
		c = &sseCounters{}
		s.sse[name] = c
	}
	return c
}

// sseLookup returns the stream's SSE counters without creating them.
func (s *Server) sseLookup(name string) *sseCounters {
	s.sseMu.Lock()
	defer s.sseMu.Unlock()
	return s.sse[name]
}

// deliverSSE hands one refresh to an SSE connection's event channel without
// ever blocking (it runs on the stream's writer goroutine): when the buffer
// is full, the oldest pending refresh is shed — the standing query is a
// state feed, so the latest refresh wins — and the drop is counted.
func (s *Server) deliverSSE(c *sseCounters, events chan apiv1.QueryResponse, ev apiv1.QueryResponse) {
	for {
		select {
		case events <- ev:
			return
		default:
			select { // shed the oldest pending refresh
			case <-events:
				c.dropped.Add(1)
				obsSSEDropped.Inc()
			default:
			}
		}
	}
}

// handleMetrics serves GET /metrics: every registered family plus the
// hub-level collector series below.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = metrics.Default().WriteText(w, s.collectHub)
}

// MetricsHandler returns the /metrics endpoint as a standalone handler,
// for serving scrapes on a separate listener (ksir-server -metrics-addr)
// so the scrape path stays reachable apart from the public API surface.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.route("metrics", s.handleMetrics))
}

// collectHub emits the scrape-time hub series: aggregate residency gauges
// over every registered stream, and per-stream {stream="..."} roll-ups.
//
// Residency discipline: Stream.Stats is lock-free and NEVER
// reactivates a hibernated stream (it reports the lastStats captured at
// hibernation), so scraping cannot churn the hot tier — the aggregates stay
// correct across hibernation because the cold streams' last-known counters
// are included.
//
// Cardinality policy (DESIGN.md §12): per-stream series are emitted only
// for resident streams, so the labeled series count is bounded by the
// residency budget, not the tenant count — a hub with 100k registered
// streams and a 64-slot hot tier exposes 64 streams' series plus the
// aggregates. The SSE families are keyed by the server's own subscription
// accounting and are emitted for every stream that ever had a subscriber.
func (s *Server) collectHub(w *metrics.Writer) {
	type row struct {
		name string
		st   ksir.StreamStats
	}
	names := s.hub.List()
	rows := make([]row, 0, len(names))
	var resident int
	var residentBytes, elements int64
	for _, name := range names {
		hs, err := s.hub.Get(name)
		if err != nil {
			continue // closed between List and Get
		}
		st := hs.Stats()
		elements += st.Elements
		if st.Residency.Resident {
			resident++
			residentBytes += st.Residency.ResidentBytes
			rows = append(rows, row{name, st})
		}
	}

	w.Family("ksir_hub_streams", "Registered streams (resident + hibernated).", "gauge")
	w.Sample("ksir_hub_streams", float64(len(names)))
	w.Family("ksir_hub_resident_streams", "Streams currently loaded in memory.", "gauge")
	w.Sample("ksir_hub_resident_streams", float64(resident))
	w.Family("ksir_hub_resident_bytes", "Approximate summed in-memory footprint of resident streams.", "gauge")
	w.Sample("ksir_hub_resident_bytes", float64(residentBytes))
	w.Family("ksir_hub_elements", "Stream elements across all registered streams, hibernated included (their last-known counters).", "gauge")
	w.Sample("ksir_hub_elements", float64(elements))

	sample := func(name, help, typ string, val func(row) float64) {
		w.Family(name, help, typ)
		for _, r := range rows {
			w.Sample(name, val(r), metrics.Label{Name: "stream", Value: r.name})
		}
	}
	sample("ksir_stream_elements_total", "Elements ingested, per resident stream.", "counter",
		func(r row) float64 { return float64(r.st.Elements) })
	sample("ksir_stream_buckets_total", "Bucket boundaries ingested, per resident stream.", "counter",
		func(r row) float64 { return float64(r.st.Bucket) })
	sample("ksir_stream_active", "Elements in the sliding window, per resident stream.", "gauge",
		func(r row) float64 { return float64(r.st.Active) })
	sample("ksir_stream_subscriptions", "Standing queries registered, per resident stream.", "gauge",
		func(r row) float64 { return float64(r.st.Subscriptions) })
	sample("ksir_stream_queue_depth", "Write operations waiting in the writer pipeline, per resident stream.", "gauge",
		func(r row) float64 { return float64(r.st.Pipeline.QueueDepth) })
	sample("ksir_stream_ops_total", "Write operations committed, per resident stream.", "counter",
		func(r row) float64 { return float64(r.st.Pipeline.Ops) })
	sample("ksir_stream_fsyncs_total", "WAL fsyncs issued, per resident stream.", "counter",
		func(r row) float64 { return float64(r.st.Pipeline.Fsyncs) })
	sample("ksir_stream_resident_bytes", "Approximate in-memory footprint, per resident stream.", "gauge",
		func(r row) float64 { return float64(r.st.Residency.ResidentBytes) })

	s.sseMu.Lock()
	sseRows := make([]struct {
		name        string
		subs, drops int64
	}, 0, len(s.sse))
	for name, c := range s.sse {
		sseRows = append(sseRows, struct {
			name        string
			subs, drops int64
		}{name, c.subscribers.Load(), c.dropped.Load()})
	}
	s.sseMu.Unlock()
	w.Family("ksir_stream_sse_subscribers", "Connected SSE subscribers, per stream.", "gauge")
	for _, r := range sseRows {
		w.Sample("ksir_stream_sse_subscribers", float64(r.subs), metrics.Label{Name: "stream", Value: r.name})
	}
	w.Family("ksir_stream_sse_dropped_total", "SSE refreshes shed by drop-oldest backpressure, per stream.", "counter")
	for _, r := range sseRows {
		w.Sample("ksir_stream_sse_dropped_total", float64(r.drops), metrics.Label{Name: "stream", Value: r.name})
	}
}
