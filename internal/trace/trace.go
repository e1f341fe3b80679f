// Package trace is the observability subsystem's causal half: where
// internal/metrics aggregates (DESIGN.md §12), trace answers "which op
// spent its time where" — the queue-wait / engine-apply / WAL-append /
// fsync breakdown the paper's update-time-per-element analysis (Figure 14)
// reasons about, per operation instead of per histogram bucket.
//
// The model is deliberately small (DESIGN.md §13):
//
//   - An Op is one operation's span accumulator: a root span (the HTTP
//     request, or an explicitly started unit of work) plus completed child
//     spans appended as each stage of the operation finishes. Children are
//     recorded with explicit start/duration, which is what lets the stream
//     writer goroutine attribute spans to an op it does not own — the
//     pipeline's done-channel close is the happens-before edge that makes
//     those cross-goroutine appends race-free without a lock.
//   - Sampling is head-based by rate, decided when the Op starts (or
//     inherited from a W3C traceparent's sampled flag), plus always-keep
//     for ops whose total duration reaches the slow threshold. Children
//     are collected either way — the keep decision happens at End, and a
//     slow op must arrive with its breakdown intact. The same threshold
//     drives the slow-op log: one slog line per over-threshold op with the
//     full span breakdown.
//   - Kept traces land in a bounded in-process ring buffer (newest
//     evicts oldest), exposed over GET /debug/traces (internal/server).
//     No exporter, no wire protocol: the recorder is a flight recorder,
//     not a tracing backend.
//
// Like the metrics registry, recording is globally gated by
// Enable/Disable so the instrumented/uninstrumented benchmark pair can
// measure its cost (ksir-bench -exp overhead, same 2% CI gate).
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"math"
	randv2 "math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults, overridable per recorder (ksir-server exposes them as flags).
const (
	// DefaultSampleRate is the head-sampling probability for ops that
	// arrive without an upstream sampling decision.
	DefaultSampleRate = 0.01
	// DefaultCapacity bounds the ring buffer of kept traces.
	DefaultCapacity = 512
	// DefaultSlowThreshold is the always-keep latency threshold: an op at
	// least this slow is kept (and logged) regardless of the sample rate.
	DefaultSlowThreshold = time.Second
	// maxOpSpans caps the child spans one op may accumulate, bounding the
	// memory a single pathological operation can pin before its keep
	// decision. Overflow is counted into the root's dropped_spans attr.
	maxOpSpans = 64
)

// enabled gates span recording process-wide, exactly like the metrics
// registry's switch: Start returns nil when off, and every Op method is
// nil-receiver safe, so a disabled process pays one atomic load per op.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enable turns span recording on (the default).
func Enable() { enabled.Store(true) }

// Disable turns span recording off: Start returns nil and the nil Op
// no-ops every method. Reading the ring still works.
func Disable() { enabled.Store(false) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalJSON emits the hex form.
func (t TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// MarshalJSON emits the hex form ("0000000000000000" for a root's absent
// parent — the tree shape stays explicit in the JSON).
func (s SpanID) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// newTraceID draws a random non-zero trace id.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], randv2.Uint64())
		binary.BigEndian.PutUint64(t[8:], randv2.Uint64())
	}
	return t
}

// newSpanID draws a random non-zero span id.
func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], randv2.Uint64())
	}
	return s
}

// SpanContext is the propagatable identity of one span — what crosses
// process boundaries as a W3C traceparent header (traceparent.go).
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context carries usable ids.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one typed span attribute: a string or an int64, never an
// interface — span recording must not allocate through fmt.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	isInt bool
}

// String builds a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, isInt: true} }

// MarshalJSON emits {"key":...,"value":...} with the value typed.
func (a Attr) MarshalJSON() ([]byte, error) {
	var b []byte
	b = append(b, `{"key":`...)
	b = appendQuoted(b, a.Key)
	b = append(b, `,"value":`...)
	if a.isInt {
		b = appendInt(b, a.Int)
	} else {
		b = appendQuoted(b, a.Str)
	}
	return append(b, '}'), nil
}

func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(byte(r)>>4), hexDigit(byte(r)&0xf))
		default:
			b = append(b, string(r)...)
		}
	}
	return append(b, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = '0' + byte(v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// Span is one completed span. The root span's Parent is zero.
type Span struct {
	SpanID   SpanID        `json:"span_id"`
	Parent   SpanID        `json:"parent"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Trace is one kept operation: the root span first, children after, in
// recording order.
type Trace struct {
	TraceID  TraceID       `json:"trace_id"`
	Stream   string        `json:"stream,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Slow     bool          `json:"slow,omitempty"`
	Spans    []Span        `json:"spans"`
}

// Op is one in-flight operation's span accumulator. The zero keep/sample
// machinery lives on the Recorder; the Op itself is a plain buffer with no
// lock — at any instant exactly one goroutine owns it (ownership handoffs
// ride existing happens-before edges: channel send into the writer queue,
// done-channel close back out).
//
// All methods are safe on a nil receiver (the disabled / unsampled-path
// contract), so call sites never branch on whether tracing is on.
type Op struct {
	rec     *Recorder
	traceID TraceID
	root    Span
	stream  string
	sampled bool
	spans   []Span
	dropped int
}

// opPool recycles Op buffers (and their span backing arrays): almost every
// op is unsampled and discarded at End, and the pipeline starts one per
// write, so the discard path must not allocate.
var opPool = sync.Pool{New: func() any { return new(Op) }}

// Start begins an op on the default recorder. See Recorder.Start.
func Start(name, stream string, parent SpanContext) *Op {
	return Default().Start(name, stream, parent)
}

// Start begins an op: a fresh root span under parent's trace (or a fresh
// trace when parent is invalid). The head sampling decision is made here —
// inherited from parent.Sampled when a parent exists, drawn against the
// sample rate otherwise. Returns nil when recording is disabled.
//
// Identity is lazy: the trace id and root span id are drawn only when the
// op is kept, propagated (Context/TraceID), or logged — an unsampled,
// un-propagated op pays no random draws.
func (r *Recorder) Start(name, stream string, parent SpanContext) *Op {
	if !enabled.Load() {
		return nil
	}
	o := opPool.Get().(*Op)
	*o = Op{
		rec:    r,
		stream: stream,
		spans:  o.spans[:0],
		root:   Span{Name: name, Start: time.Now()},
	}
	if parent.Valid() {
		o.traceID = parent.TraceID
		o.root.Parent = parent.SpanID
		o.sampled = parent.Sampled
	} else {
		o.sampled = randv2.Float64() < r.SampleRate()
	}
	return o
}

// ids materializes the op's lazily drawn identity (see Recorder.Start).
func (o *Op) ids() {
	if o.traceID.IsZero() {
		o.traceID = newTraceID()
	}
	if o.root.SpanID.IsZero() {
		o.root.SpanID = newSpanID()
	}
}

// release clears the op (dropping the string/attr references its span
// buffer pins) and returns it to the pool. Callers must not touch an op
// after End.
func (o *Op) release() {
	clear(o.spans)
	spans := o.spans[:0]
	*o = Op{spans: spans}
	opPool.Put(o)
}

// Context returns the op's root span context — what downstream hops (the
// SDK's traceparent header, child ops) should parent themselves under.
func (o *Op) Context() SpanContext {
	if o == nil {
		return SpanContext{}
	}
	o.ids()
	return SpanContext{TraceID: o.traceID, SpanID: o.root.SpanID, Sampled: o.sampled}
}

// TraceID returns the op's trace id (zero on nil).
func (o *Op) TraceID() TraceID {
	if o == nil {
		return TraceID{}
	}
	o.ids()
	return o.traceID
}

// SetStream labels the op with the stream it operates on (filterable on
// /debug/traces). Later calls win; empty is ignored.
func (o *Op) SetStream(name string) {
	if o == nil || name == "" {
		return
	}
	o.stream = name
}

// Annotate appends attributes to the root span.
func (o *Op) Annotate(attrs ...Attr) {
	if o == nil {
		return
	}
	o.root.Attrs = append(o.root.Attrs, attrs...)
}

// Child records a completed child of the root span from an explicit start
// and duration, returning its id so grandchildren can parent under it.
func (o *Op) Child(name string, start time.Time, d time.Duration, attrs ...Attr) SpanID {
	return o.ChildOf(SpanID{}, name, start, d, attrs...)
}

// ChildOf records a completed span under parent (zero parent means the
// root). Beyond maxOpSpans the span is dropped and counted.
func (o *Op) ChildOf(parent SpanID, name string, start time.Time, d time.Duration, attrs ...Attr) SpanID {
	if o == nil {
		return SpanID{}
	}
	if len(o.spans) >= maxOpSpans {
		o.dropped++
		return SpanID{}
	}
	// A zero parent stays zero here — it means "under the root", and the
	// root's lazily drawn id is resolved into kept spans at End.
	id := newSpanID()
	o.spans = append(o.spans, Span{
		SpanID: id, Parent: parent, Name: name,
		Start: start, Duration: d, Attrs: attrs,
	})
	return id
}

// End finalizes the op: the root duration is stamped, the keep decision is
// made (head-sampled, or at/over the slow threshold), a kept trace is
// pushed into the ring, and a slow op is logged with its full breakdown.
// The op is recycled — no Op method may be called after End (an immediate
// double End is tolerated, but any use past that is a ownership bug, same
// as writing to a closed channel).
func (o *Op) End() {
	if o == nil || o.rec == nil {
		return
	}
	r := o.rec
	o.rec = nil
	o.root.Duration = time.Since(o.root.Start)
	slowT := r.SlowThreshold()
	slow := slowT > 0 && o.root.Duration >= slowT
	if !o.sampled && !slow {
		o.release()
		return
	}
	o.ids()
	if slow {
		r.logSlow(o)
	}
	if o.dropped > 0 {
		o.root.Attrs = append(o.root.Attrs, Int("dropped_spans", int64(o.dropped)))
	}
	spans := make([]Span, 0, 1+len(o.spans))
	spans = append(spans, o.root)
	for _, s := range o.spans {
		if s.Parent.IsZero() {
			s.Parent = o.root.SpanID
		}
		spans = append(spans, s)
	}
	r.push(&Trace{
		TraceID:  o.traceID,
		Stream:   o.stream,
		Start:    o.root.Start,
		Duration: o.root.Duration,
		Slow:     slow,
		Spans:    spans,
	})
	o.release()
}

// Recorder keeps completed traces in a bounded ring. All knobs are
// runtime-adjustable and concurrency-safe.
type Recorder struct {
	mu   sync.Mutex
	ring []*Trace // fixed-size circular buffer, allocated lazily
	next int      // next insert position
	size int      // filled slots

	capn   atomic.Int64
	rate   atomic.Uint64 // math.Float64bits
	slow   atomic.Int64  // ns; 0 disables the always-keep path
	logger atomic.Pointer[slog.Logger]
}

// NewRecorder builds a recorder holding up to capacity traces (<=0 means
// DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r.capn.Store(int64(capacity))
	r.rate.Store(math.Float64bits(DefaultSampleRate))
	r.slow.Store(int64(DefaultSlowThreshold))
	return r
}

var defaultRecorder = NewRecorder(DefaultCapacity)

// Default returns the process-wide recorder Start records into.
func Default() *Recorder { return defaultRecorder }

// SetSampleRate sets the head-sampling probability, clamped to [0,1].
func (r *Recorder) SetSampleRate(p float64) {
	r.rate.Store(math.Float64bits(math.Min(1, math.Max(0, p))))
}

// SampleRate returns the head-sampling probability.
func (r *Recorder) SampleRate() float64 { return math.Float64frombits(r.rate.Load()) }

// SetSlowThreshold sets the always-keep (and slow-log) latency threshold;
// 0 disables the path.
func (r *Recorder) SetSlowThreshold(d time.Duration) { r.slow.Store(int64(d)) }

// SlowThreshold returns the always-keep latency threshold.
func (r *Recorder) SlowThreshold() time.Duration { return time.Duration(r.slow.Load()) }

// SetLogger sets the slog logger slow ops are reported to (nil silences
// them; the traces are still kept).
func (r *Recorder) SetLogger(l *slog.Logger) { r.logger.Store(l) }

// SetCapacity resizes the ring, preserving the most recent traces that
// fit (<=0 means DefaultCapacity).
func (r *Recorder) SetCapacity(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.snapshotLocked(Filter{Limit: capacity}) // newest-first
	r.capn.Store(int64(capacity))
	r.ring = make([]*Trace, capacity)
	r.next, r.size = 0, 0
	for i := len(kept) - 1; i >= 0; i-- { // reinsert oldest-first
		r.ring[r.next] = kept[i]
		r.next = (r.next + 1) % capacity
		r.size++
	}
}

// Len returns how many traces the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// push inserts one kept trace, evicting the oldest at capacity.
func (r *Recorder) push(tr *Trace) {
	capn := int(r.capn.Load())
	r.mu.Lock()
	if len(r.ring) != capn {
		// Lazy allocation (and a belt-and-suspenders resync if capn moved
		// without SetCapacity's rebuild, which cannot happen today).
		r.ring = make([]*Trace, capn)
		r.next, r.size = 0, 0
	}
	r.ring[r.next] = tr
	r.next = (r.next + 1) % capn
	if r.size < capn {
		r.size++
	}
	r.mu.Unlock()
}

// Filter selects traces out of the ring.
type Filter struct {
	// Stream keeps only traces labeled with this stream ("" keeps all).
	Stream string
	// MinDuration keeps only traces at least this slow.
	MinDuration time.Duration
	// Limit caps the result count (<=0 means no cap).
	Limit int
}

// Snapshot returns matching traces, newest first. The returned traces are
// shared (immutable after push); callers must not mutate them.
func (r *Recorder) Snapshot(f Filter) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(f)
}

func (r *Recorder) snapshotLocked(f Filter) []*Trace {
	out := []*Trace{}
	n := len(r.ring)
	for i := 1; i <= r.size; i++ {
		tr := r.ring[((r.next-i)%n+n)%n]
		if f.Stream != "" && tr.Stream != f.Stream {
			continue
		}
		if tr.Duration < f.MinDuration {
			continue
		}
		out = append(out, tr)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// logSlow emits the one-line slow-op report: identity plus the full child
// breakdown, so the log alone answers where the op's time went.
func (r *Recorder) logSlow(o *Op) {
	l := r.logger.Load()
	if l == nil {
		return
	}
	var b strings.Builder
	for i, sp := range o.spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		b.WriteByte('=')
		b.WriteString(sp.Duration.String())
	}
	l.Warn("slow op",
		"trace_id", o.traceID.String(),
		"op", o.root.Name,
		"stream", o.stream,
		"duration", o.root.Duration,
		"spans", b.String(),
	)
}

// opKey carries an *Op through a context; remoteKey carries a bare
// SpanContext injected by a caller that has no local op (the SDK's
// WithTraceparent path).
type opKey struct{}
type remoteKey struct{}

// ContextWith returns ctx carrying op (no-op for a nil op).
func ContextWith(ctx context.Context, op *Op) context.Context {
	if op == nil {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, op)
}

// FromContext returns the op carried by ctx, or nil. A nil ctx is
// tolerated (callers in the hot path pass contexts straight through).
func FromContext(ctx context.Context) *Op {
	if ctx == nil {
		return nil
	}
	op, _ := ctx.Value(opKey{}).(*Op)
	return op
}

// ContextWithRemote returns ctx carrying an upstream span context to
// propagate (used when the caller holds a traceparent but no local Op).
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// SpanContextFromContext extracts the span context to propagate from ctx:
// the local op's root if one is present, else an injected remote context.
func SpanContextFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	if op := FromContext(ctx); op != nil {
		return op.Context(), true
	}
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}
