package ksir

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/trace"
)

// startedOp begins a certainly head-sampled parentless op on a private
// recorder, so pipeline span assertions never touch the global recorder.
func startedOp(t *testing.T, rec *trace.Recorder, name string) *trace.Op {
	t.Helper()
	rec.SetSampleRate(1)
	rec.SetSlowThreshold(0)
	op := rec.Start(name, "", trace.SpanContext{})
	if op == nil {
		t.Fatal("recorder refused to start an op")
	}
	return op
}

// spanIn returns the first span with the given name, failing if absent.
func spanIn(t *testing.T, tr *trace.Trace, name string) trace.Span {
	t.Helper()
	for _, s := range tr.Spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("trace has no span %q (got %d spans)", name, len(tr.Spans))
	return trace.Span{}
}

// The pipeline tracing contract: a write op carrying a trace op through
// AddContext comes back with the full breakdown — the post's build before
// it queues, queue wait, commit batch, engine apply, WAL append and fsync
// — correctly parented and with non-zero durations, and the trace is
// attributed to the stream. AddBatchContext records one post.build, the
// caller's, however many helpers built the rest of the batch.
func TestAddContextRecordsPipelineSpans(t *testing.T) {
	m := trainTestModel(t)
	h, err := OpenHub(t.TempDir(), m, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder(8)
	op := startedOp(t, rec, "test.add")
	ctx := trace.ContextWith(context.Background(), op)
	if err := hs.AddContext(ctx, Post{ID: 1, Time: 30, Text: "late goal wins the derby"}); err != nil {
		t.Fatal(err)
	}
	op.End()

	traces := rec.Snapshot(trace.Filter{})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Stream != "feed" {
		t.Fatalf("trace stream = %q, want feed", tr.Stream)
	}
	root := tr.Spans[0]
	build := spanIn(t, tr, "post.build")
	qw := spanIn(t, tr, "queue.wait")
	cb := spanIn(t, tr, "commit.batch")
	apply := spanIn(t, tr, "engine.apply")
	wal := spanIn(t, tr, "wal.append")
	fsync := spanIn(t, tr, "wal.fsync")
	for _, s := range []trace.Span{build, qw, cb, apply, wal, fsync} {
		if s.Duration <= 0 {
			t.Errorf("span %s duration = %v, want > 0", s.Name, s.Duration)
		}
	}
	if build.Parent != root.SpanID || qw.Parent != root.SpanID || cb.Parent != root.SpanID {
		t.Error("post.build/queue.wait/commit.batch not parented to the op root")
	}
	if build.Start.Add(build.Duration).After(qw.Start) {
		t.Errorf("post.build [%v +%v] does not end before queue.wait starts at %v", build.Start, build.Duration, qw.Start)
	}
	if apply.Parent != cb.SpanID || wal.Parent != cb.SpanID || fsync.Parent != cb.SpanID {
		t.Error("engine.apply/wal.append/wal.fsync not parented to commit.batch")
	}

	op = startedOp(t, rec, "test.addbatch")
	ctx = trace.ContextWith(context.Background(), op)
	batch := genPosts(100, 3)
	for i := range batch {
		batch[i].ID += 1000
	}
	if _, err := hs.AddBatchContext(ctx, batch); err != nil {
		t.Fatal(err)
	}
	op.End()
	tr = rec.Snapshot(trace.Filter{})[0]
	var builds []trace.Span
	for _, s := range tr.Spans {
		if s.Name == "post.build" {
			builds = append(builds, s)
		}
	}
	if len(builds) != 1 || builds[0].Parent != tr.Spans[0].SpanID || builds[0].Duration <= 0 {
		t.Errorf("AddBatchContext recorded post.build spans %+v, want one under the op root", builds)
	}
}

// An untraced write must not record anything: the nil-op path through the
// pipeline is the production default and has to stay inert.
func TestUntracedWriteRecordsNoSpans(t *testing.T) {
	m := trainTestModel(t)
	h := NewHub()
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(8)
	rec.SetSampleRate(1)
	if err := hs.Add(Post{ID: 1, Time: 30, Text: "late goal wins the derby"}); err != nil {
		t.Fatal(err)
	}
	if err := hs.FlushContext(context.Background(), 120); err != nil {
		t.Fatal(err)
	}
	if n := rec.Len(); n != 0 {
		t.Fatalf("untraced writes recorded %d traces", n)
	}
}

// A reactivating op's trace carries the stream.activate child under its
// commit batch.
func TestReactivationRecordsActivateSpan(t *testing.T) {
	m := trainTestModel(t)
	h, err := OpenHub(t.TempDir(), m, PersistOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseAll()
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Add(Post{ID: 1, Time: 30, Text: "late goal wins the derby"}); err != nil {
		t.Fatal(err)
	}
	if err := hs.Flush(120); err != nil {
		t.Fatal(err)
	}
	if err := hs.Hibernate(); err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder(8)
	op := startedOp(t, rec, "test.query")
	ctx := trace.ContextWith(context.Background(), op)
	if _, err := hs.Query(ctx, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	op.End()

	tr := rec.Snapshot(trace.Filter{})[0]
	act := spanIn(t, tr, "stream.activate")
	cb := spanIn(t, tr, "commit.batch")
	if act.Parent != cb.SpanID {
		t.Error("stream.activate not parented to commit.batch")
	}
	if act.Duration <= 0 {
		t.Errorf("stream.activate duration = %v, want > 0", act.Duration)
	}
	// The activation breakdown: loading the checkpoint and rebuilding the
	// engine are phases of every reactivation (the WAL tail is empty here —
	// Hibernate checkpoints — so wal.replay may legitimately be absent).
	for _, name := range []string{"checkpoint.load", "state.restore"} {
		s := spanIn(t, tr, name)
		if s.Parent != act.SpanID {
			t.Errorf("%s not parented to stream.activate", name)
		}
		if s.Duration <= 0 {
			t.Errorf("%s duration = %v, want > 0", name, s.Duration)
		}
	}
	spanIn(t, tr, "snapshot.pin")
	spanIn(t, tr, "query.descend")
}

// A crash-recovered activation shows the full phase breakdown — checkpoint
// load, state restore and WAL tail replay — as exactly the children of
// stream.activate.
func TestActivationPhaseSpansWithWALTail(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	h := openTestHub(t, dir, m, PersistOptions{})
	hs, err := h.Create("feed", m, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	posts := genPosts(60, 57)
	for _, p := range posts[:30] {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range posts[30:] {
		if err := hs.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Crash snapshot: checkpoint plus a WAL tail spanning several buckets,
	// so reactivation replays through the engine.
	crash := t.TempDir()
	copyStreamTree(t, dir, crash)
	if err := h.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// A residency budget makes recovery cold: the traced query below is
	// the first touch and pays (and records) the whole activation.
	h2 := openTestHub(t, crash, m, PersistOptions{MaxResidentStreams: 4, ResidencySweep: time.Hour})
	defer h2.CloseAll()
	hs2, err := h2.Get("feed")
	if err != nil {
		t.Fatal(err)
	}
	if hs2.Resident() {
		t.Fatal("crash-recovered stream resident before first touch")
	}
	rec := trace.NewRecorder(8)
	op := startedOp(t, rec, "test.query")
	ctx := trace.ContextWith(context.Background(), op)
	if _, err := hs2.Query(ctx, Query{K: 3, Keywords: []string{"goal"}}); err != nil {
		t.Fatal(err)
	}
	op.End()

	tr := rec.Snapshot(trace.Filter{})[0]
	act := spanIn(t, tr, "stream.activate")
	var children []string
	for _, s := range tr.Spans {
		if s.Parent == act.SpanID {
			children = append(children, s.Name)
		}
	}
	want := []string{"checkpoint.load", "state.restore", "wal.replay"}
	if !slices.Equal(children, want) {
		t.Errorf("stream.activate children = %v, want %v", children, want)
	}
	for _, name := range want {
		s := spanIn(t, tr, name)
		if s.Duration <= 0 {
			t.Errorf("%s duration = %v, want > 0", name, s.Duration)
		}
		if s.Start.Before(act.Start) || s.Start.Add(s.Duration).After(act.Start.Add(act.Duration)) {
			t.Errorf("%s [%v +%v] outside stream.activate [%v +%v]",
				name, s.Start, s.Duration, act.Start, act.Duration)
		}
	}
}
