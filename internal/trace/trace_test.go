package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// startSampled begins a parentless op on r that is certainly head-sampled.
func startSampled(r *Recorder, name, stream string) *Op {
	old := r.SampleRate()
	r.SetSampleRate(1)
	op := r.Start(name, stream, SpanContext{})
	r.SetSampleRate(old)
	return op
}

func TestOpRecordsSpanTree(t *testing.T) {
	r := NewRecorder(8)
	r.SetSlowThreshold(0)
	op := startSampled(r, "http.posts", "feed")
	if op == nil {
		t.Fatal("Start returned nil with recording enabled")
	}
	start := time.Now()
	batch := op.Child("commit.batch", start, 5*time.Millisecond, Int("batch.ops", 3))
	op.ChildOf(batch, "engine.apply", start, 2*time.Millisecond)
	op.ChildOf(batch, "wal.append", start, time.Millisecond, String("policy", "always"))
	op.End()

	traces := r.Snapshot(Filter{})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Stream != "feed" {
		t.Fatalf("stream = %q", tr.Stream)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (root + 3 children)", len(tr.Spans))
	}
	root := tr.Spans[0]
	if root.Name != "http.posts" || !root.Parent.IsZero() {
		t.Fatalf("root = %+v", root)
	}
	if tr.Spans[1].Parent != root.SpanID {
		t.Fatal("commit.batch not parented to root")
	}
	if tr.Spans[2].Parent != tr.Spans[1].SpanID || tr.Spans[3].Parent != tr.Spans[1].SpanID {
		t.Fatal("apply/append not parented to commit.batch")
	}
	if tr.Duration <= 0 {
		t.Fatal("root duration not stamped")
	}
}

func TestInheritedParentLinksRoot(t *testing.T) {
	r := NewRecorder(8)
	r.SetSlowThreshold(0)
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	op := r.Start("http.query", "s", parent)
	op.End()
	traces := r.Snapshot(Filter{})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	if traces[0].TraceID != parent.TraceID {
		t.Fatal("trace id not inherited from parent")
	}
	if traces[0].Spans[0].Parent != parent.SpanID {
		t.Fatal("root not parented under the remote span")
	}
}

func TestSamplingByRate(t *testing.T) {
	r := NewRecorder(4096)
	r.SetSlowThreshold(0)

	r.SetSampleRate(0)
	for i := 0; i < 100; i++ {
		r.Start("op", "", SpanContext{}).End()
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("rate 0 kept %d traces", n)
	}

	r.SetSampleRate(1)
	for i := 0; i < 100; i++ {
		r.Start("op", "", SpanContext{}).End()
	}
	if n := r.Len(); n != 100 {
		t.Fatalf("rate 1 kept %d traces, want 100", n)
	}

	// Unsampled inherited decision is honored even at rate 1.
	r2 := NewRecorder(16)
	r2.SetSlowThreshold(0)
	r2.SetSampleRate(1)
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: false}
	r2.Start("op", "", parent).End()
	if n := r2.Len(); n != 0 {
		t.Fatalf("unsampled parent kept %d traces", n)
	}
}

func TestSlowOpAlwaysKeptAndLogged(t *testing.T) {
	r := NewRecorder(8)
	r.SetSampleRate(0)
	r.SetSlowThreshold(time.Nanosecond) // everything is slow
	var buf bytes.Buffer
	r.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))

	op := r.Start("http.flush", "feed", SpanContext{})
	op.Child("wal.fsync", time.Now(), 3*time.Millisecond)
	time.Sleep(time.Millisecond)
	op.End()

	traces := r.Snapshot(Filter{})
	if len(traces) != 1 || !traces[0].Slow {
		t.Fatalf("slow op not kept: %+v", traces)
	}
	logged := buf.String()
	for _, want := range []string{"slow op", "http.flush", "feed", "wal.fsync=", "trace_id="} {
		if !strings.Contains(logged, want) {
			t.Fatalf("slow-op log %q missing %q", logged, want)
		}
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(4)
	r.SetSlowThreshold(0)
	for i := 0; i < 10; i++ {
		op := startSampled(r, "op", "")
		op.Annotate(Int("i", int64(i)))
		op.End()
	}
	if n := r.Len(); n != 4 {
		t.Fatalf("ring holds %d, want capacity 4", n)
	}
	traces := r.Snapshot(Filter{})
	// Newest first: 9, 8, 7, 6.
	for i, tr := range traces {
		if got := tr.Spans[0].Attrs[0].Int; got != int64(9-i) {
			t.Fatalf("snapshot[%d] = op %d, want %d", i, got, 9-i)
		}
	}
}

func TestSnapshotFilters(t *testing.T) {
	r := NewRecorder(16)
	r.SetSlowThreshold(0)
	for i, stream := range []string{"a", "b", "a", "b"} {
		op := startSampled(r, "op", stream)
		op.Annotate(Int("i", int64(i)))
		op.End()
	}
	if got := len(r.Snapshot(Filter{Stream: "a"})); got != 2 {
		t.Fatalf("stream filter kept %d, want 2", got)
	}
	if got := len(r.Snapshot(Filter{Limit: 3})); got != 3 {
		t.Fatalf("limit kept %d, want 3", got)
	}
	if got := len(r.Snapshot(Filter{MinDuration: time.Hour})); got != 0 {
		t.Fatalf("min-duration kept %d, want 0", got)
	}
}

func TestSpanCapCountsDrops(t *testing.T) {
	r := NewRecorder(4)
	r.SetSlowThreshold(0)
	op := startSampled(r, "op", "")
	for i := 0; i < maxOpSpans+7; i++ {
		op.Child("c", time.Now(), time.Microsecond)
	}
	op.End()
	tr := r.Snapshot(Filter{})[0]
	if len(tr.Spans) != 1+maxOpSpans {
		t.Fatalf("kept %d spans, want %d", len(tr.Spans), 1+maxOpSpans)
	}
	var dropped int64
	for _, a := range tr.Spans[0].Attrs {
		if a.Key == "dropped_spans" {
			dropped = a.Int
		}
	}
	if dropped != 7 {
		t.Fatalf("dropped_spans = %d, want 7", dropped)
	}
}

func TestDisableMakesStartNil(t *testing.T) {
	Disable()
	defer Enable()
	op := Start("op", "", SpanContext{})
	if op != nil {
		t.Fatal("Start returned a live op while disabled")
	}
	// The nil op must be inert end to end.
	op.SetStream("x")
	op.Annotate(Int("k", 1))
	id := op.Child("c", time.Now(), time.Second)
	op.ChildOf(id, "d", time.Now(), time.Second)
	op.End()
	if (op.Context() != SpanContext{}) {
		t.Fatal("nil op produced a span context")
	}
}

func TestEndIdempotent(t *testing.T) {
	r := NewRecorder(8)
	r.SetSlowThreshold(0)
	op := startSampled(r, "op", "")
	op.End()
	op.End()
	if n := r.Len(); n != 1 {
		t.Fatalf("double End kept %d traces", n)
	}
}

func TestSetCapacityPreservesNewest(t *testing.T) {
	r := NewRecorder(8)
	r.SetSlowThreshold(0)
	for i := 0; i < 6; i++ {
		op := startSampled(r, "op", "")
		op.Annotate(Int("i", int64(i)))
		op.End()
	}
	r.SetCapacity(2)
	traces := r.Snapshot(Filter{})
	if len(traces) != 2 {
		t.Fatalf("after shrink ring holds %d, want 2", len(traces))
	}
	if traces[0].Spans[0].Attrs[0].Int != 5 || traces[1].Spans[0].Attrs[0].Int != 4 {
		t.Fatalf("shrink kept wrong traces: %d, %d",
			traces[0].Spans[0].Attrs[0].Int, traces[1].Spans[0].Attrs[0].Int)
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder(4)
	op := startSampled(r, "op", "")
	ctx := ContextWith(context.Background(), op)
	if FromContext(ctx) != op {
		t.Fatal("op did not round-trip through context")
	}
	sc, ok := SpanContextFromContext(ctx)
	if !ok || sc != op.Context() {
		t.Fatal("span context not derived from the op")
	}

	remote := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	rctx := ContextWithRemote(context.Background(), remote)
	if got, ok := SpanContextFromContext(rctx); !ok || got != remote {
		t.Fatal("remote span context not carried")
	}
	if _, ok := SpanContextFromContext(context.Background()); ok {
		t.Fatal("empty context produced a span context")
	}
}

func TestTraceJSONShape(t *testing.T) {
	r := NewRecorder(4)
	r.SetSlowThreshold(0)
	op := startSampled(r, "http.posts", "feed")
	op.Child("wal.fsync", time.Now(), 2*time.Millisecond, Int("records", 3), String("policy", "always"))
	op.End()
	raw, err := json.Marshal(r.Snapshot(Filter{})[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceID string `json:"trace_id"`
		Stream  string `json:"stream"`
		Spans   []struct {
			SpanID string `json:"span_id"`
			Parent string `json:"parent"`
			Name   string `json:"name"`
			Dur    int64  `json:"duration_ns"`
			Attrs  []struct {
				Key   string          `json:"key"`
				Value json.RawMessage `json:"value"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("round-trip failed on %s: %v", raw, err)
	}
	if len(decoded.TraceID) != 32 || decoded.Stream != "feed" || len(decoded.Spans) != 2 {
		t.Fatalf("unexpected shape: %s", raw)
	}
	child := decoded.Spans[1]
	if child.Parent != decoded.Spans[0].SpanID || child.Dur != int64(2*time.Millisecond) {
		t.Fatalf("child shape wrong: %s", raw)
	}
	if len(child.Attrs) != 2 || child.Attrs[0].Key != "records" ||
		string(child.Attrs[0].Value) != "3" || string(child.Attrs[1].Value) != `"always"` {
		t.Fatalf("attr shape wrong: %s", raw)
	}
}

// queryOp records an op shaped like a traced query's: two children, the
// second under the first, six attributes between them.
func queryOp(rec *Recorder, evaluated int64) {
	op := rec.Start("http.query", "s", SpanContext{})
	start := time.Now()
	pin := op.Child("snapshot.pin", start, time.Since(start), Int("bucket", 7))
	op.ChildOf(pin, "query.descend", start, time.Since(start),
		String("algorithm", "mtts"), Int("evaluated", evaluated), Int("retrieved", 20),
		Int("gain_evals", 30), Int("certified", 4))
	op.End()
}

// An unsampled op allocates nothing: it draws no span id, and it copies
// its children's attributes into its pooled buffer instead of keeping the
// callers' variadic slices, which would make them escape.
func TestUnsampledOpAllocationsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled ops")
	}
	rec := NewRecorder(8)
	rec.SetSampleRate(0)
	rec.SetSlowThreshold(time.Hour)
	if allocs := testing.AllocsPerRun(200, func() { queryOp(rec, 10) }); allocs != 0 {
		t.Errorf("an unsampled query-shaped op allocates %.1f times, want 0", allocs)
	}
}

// A kept trace owns its attributes and ids: the ops that reuse the pooled
// buffers after it change nothing in it, and every span has its own drawn
// id.
func TestKeptTraceOwnsItsAttrs(t *testing.T) {
	r := NewRecorder(8)
	r.SetSlowThreshold(0)
	r.SetSampleRate(1)
	queryOp(r, 1)
	queryOp(r, 2)
	traces := r.Snapshot(Filter{})
	if len(traces) != 2 {
		t.Fatalf("kept %d traces, want 2", len(traces))
	}
	for i, tr := range traces {
		descend := tr.Spans[2]
		var evaluated int64 = -1
		for _, a := range descend.Attrs {
			if a.Key == "evaluated" {
				evaluated = a.Int
			}
		}
		if want := int64(2 - i); len(descend.Attrs) != 5 || evaluated != want {
			t.Fatalf("trace %d: query.descend attrs %+v, want 5 with evaluated %d", i, descend.Attrs, want)
		}
		if len(tr.Spans[1].Attrs) != 1 || tr.Spans[1].Attrs[0].Key != "bucket" {
			t.Fatalf("trace %d: snapshot.pin attrs %+v", i, tr.Spans[1].Attrs)
		}
		ids := map[SpanID]bool{}
		for _, sp := range tr.Spans {
			ids[sp.SpanID] = true
		}
		if len(ids) != 3 || ids[SpanID{}] || descend.Parent != tr.Spans[1].SpanID || tr.Spans[1].Parent != tr.Spans[0].SpanID {
			t.Fatalf("trace %d: span ids or parents wrong: %+v", i, tr.Spans)
		}
	}
}

// The pipeline starts one op per write and records ~6 children whether or
// not the op is sampled (a slow op must surface with its breakdown
// intact), so the unsampled path is the per-op hot cost the overhead gate
// meters. Keep it allocation-light.
func BenchmarkUnsampledOp(b *testing.B) {
	rec := NewRecorder(8)
	rec.SetSampleRate(0)
	rec.SetSlowThreshold(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := rec.Start("bench.op", "bench", SpanContext{})
		start := time.Now()
		op.Child("engine.apply", start, time.Since(start))
		op.End()
	}
}

// BenchmarkUnsampledQueryOp is the unsampled cost a traced query adds.
func BenchmarkUnsampledQueryOp(b *testing.B) {
	rec := NewRecorder(8)
	rec.SetSampleRate(0)
	rec.SetSlowThreshold(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queryOp(rec, int64(i))
	}
}
