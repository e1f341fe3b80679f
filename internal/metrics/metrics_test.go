package metrics

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func expoString(t *testing.T, r *Registry, collectors ...Collector) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb, collectors...); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := &Counter{name: "test_ops_total", help: "Ops applied.", scale: 1}
	r.MustRegister(c)
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("value = %d, want 42", c.Value())
	}
	got := expoString(t, r)
	want := "# HELP test_ops_total Ops applied.\n# TYPE test_ops_total counter\ntest_ops_total 42\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestDurationCounterScaling(t *testing.T) {
	r := NewRegistry()
	c := &Counter{name: "test_busy_seconds_total", help: "Busy time.", scale: 1e-9}
	r.MustRegister(c)
	c.AddDuration(1500 * time.Millisecond)
	got := expoString(t, r)
	if !strings.Contains(got, "test_busy_seconds_total 1.5\n") {
		t.Fatalf("want 1.5s sample, got:\n%s", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := &Gauge{name: "test_in_flight", help: "In flight."}
	r.MustRegister(g)
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if g.Value() != 11 {
		t.Fatalf("value = %d, want 11", g.Value())
	}
	g.Set(-3)
	got := expoString(t, r)
	if !strings.Contains(got, "# TYPE test_in_flight gauge\ntest_in_flight -3\n") {
		t.Fatalf("gauge exposition wrong:\n%s", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := &GaugeFunc{name: "test_resident", help: "Resident.", fn: func() float64 { return 7 }}
	r.MustRegister(g)
	if got := expoString(t, r); !strings.Contains(got, "test_resident 7\n") {
		t.Fatalf("gauge func exposition wrong:\n%s", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := newHistogram("test_latency_seconds", "Latency.", 1e-9,
		[]uint64{uint64(time.Millisecond), uint64(10 * time.Millisecond)})
	r.MustRegister(h)
	h.ObserveDuration(500 * time.Microsecond) // bucket 0
	h.ObserveDuration(time.Millisecond)       // bucket 0 (le is inclusive)
	h.ObserveDuration(5 * time.Millisecond)   // bucket 1
	h.ObserveDuration(time.Second)            // +Inf
	got := expoString(t, r)
	for _, line := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.001"} 2`,
		`test_latency_seconds_bucket{le="0.01"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, got)
		}
	}
	// sum = 0.5ms + 1ms + 5ms + 1000ms = 1.0065s
	if !strings.Contains(got, "test_latency_seconds_sum 1.0065") {
		t.Fatalf("missing sum in:\n%s", got)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	for _, bounds := range [][]uint64{{}, {10, 10}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v: want panic", bounds)
				}
			}()
			newHistogram("test_bad", "x", 1, bounds)
		}()
	}
}

func TestVecs(t *testing.T) {
	r := NewRegistry()
	cv := &CounterVec{name: "test_requests_total", help: "Requests.", label: "route",
		index: map[string]*Counter{}}
	for _, route := range []string{"query", "add"} {
		c := &Counter{name: cv.name, help: cv.help, scale: 1, labels: []Label{{"route", route}}}
		cv.children = append(cv.children, c)
		cv.index[route] = c
	}
	r.MustRegister(cv)
	cv.With("query").Add(3)
	cv.With("add").Inc()
	got := expoString(t, r)
	if !strings.Contains(got, `test_requests_total{route="query"} 3`+"\n") ||
		!strings.Contains(got, `test_requests_total{route="add"} 1`+"\n") {
		t.Fatalf("vec exposition wrong:\n%s", got)
	}
	if n := strings.Count(got, "# TYPE test_requests_total"); n != 1 {
		t.Fatalf("TYPE header written %d times, want 1:\n%s", n, got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("With(unknown) should panic")
		}
	}()
	cv.With("nope")
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := &HistogramVec{name: "test_q_seconds", help: "Q.", label: "algorithm",
		index: map[string]*Histogram{}}
	for _, alg := range []string{"MTTS", "MTTD"} {
		h := newHistogram(hv.name, hv.help, 1e-9, []uint64{uint64(time.Millisecond)})
		h.labels = []Label{{"algorithm", alg}}
		hv.children = append(hv.children, h)
		hv.index[alg] = h
	}
	r.MustRegister(hv)
	hv.With("MTTS").ObserveDuration(2 * time.Millisecond)
	got := expoString(t, r)
	for _, line := range []string{
		`test_q_seconds_bucket{algorithm="MTTS",le="0.001"} 0`,
		`test_q_seconds_bucket{algorithm="MTTS",le="+Inf"} 1`,
		`test_q_seconds_count{algorithm="MTTS"} 1`,
		`test_q_seconds_count{algorithm="MTTD"} 0`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, got)
		}
	}
}

func TestDisableFreezesRecording(t *testing.T) {
	r := NewRegistry()
	c := &Counter{name: "test_frozen_total", help: "x", scale: 1}
	h := newHistogram("test_frozen_seconds", "x", 1e-9, []uint64{uint64(time.Millisecond)})
	r.MustRegister(c)
	r.MustRegister(h)
	c.Inc()
	Disable()
	defer Enable()
	if Enabled() {
		t.Fatal("Enabled() after Disable()")
	}
	c.Inc()
	c.Add(100)
	h.ObserveDuration(time.Millisecond)
	if c.Value() != 1 || h.Count() != 0 {
		t.Fatalf("recording not frozen: counter=%d hist=%d", c.Value(), h.Count())
	}
	Enable()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("recording not resumed: counter=%d", c.Value())
	}
}

func TestRegistryDuplicateAndInvalidNames(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Counter{name: "dup_total", scale: 1}); err != nil {
		t.Fatalf("first register: %v", err)
	}
	if err := r.Register(&Counter{name: "dup_total", scale: 1}); err == nil {
		t.Fatal("duplicate register should fail")
	}
	for _, bad := range []string{"", "9lead", "has space", "dash-ed"} {
		if err := r.Register(&Counter{name: bad, scale: 1}); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}
}

func TestFamiliesSortedAndCollectorAppended(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&Counter{name: "zz_total", help: "z", scale: 1})
	r.MustRegister(&Counter{name: "aa_total", help: "a", scale: 1})
	got := expoString(t, r, func(w *Writer) {
		w.Family("dyn_bytes", "Dynamic.", "gauge")
		w.Sample("dyn_bytes", 5, Label{"stream", `we"ird\name`})
	})
	if strings.Index(got, "aa_total") > strings.Index(got, "zz_total") {
		t.Fatalf("families not sorted:\n%s", got)
	}
	if !strings.Contains(got, `dyn_bytes{stream="we\"ird\\name"} 5`+"\n") {
		t.Fatalf("collector sample or escaping wrong:\n%s", got)
	}
	if strings.Index(got, "dyn_bytes") < strings.Index(got, "zz_total") {
		t.Fatalf("collector families must come after registry families:\n%s", got)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&Counter{name: "test_h_total", help: "h", scale: 1})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q, want %q", ct, ContentType)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		42:      "42",
		-3:      "-3",
		1.5:     "1.5",
		0.00005: "5e-05",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

// defreg holds the families TestDefaultRegistryConstructors registers into
// Default. Default lives as long as the process and refuses a family
// twice, so they are registered once however often the test runs
// (go test -count=N).
var (
	defregOnce sync.Once
	defreg     struct {
		c, d *Counter
		g    *Gauge
		h    *Histogram
		cv   *CounterVec
		hv   *HistogramVec
	}
)

func TestDefaultRegistryConstructors(t *testing.T) {
	// Constructors register into Default; exercise each with unique names
	// and confirm they show up in the default exposition: each series
	// moved by what this run did, the gauge function at its constant.
	defregOnce.Do(func() {
		defreg.c = NewCounter("test_defreg_ops_total", "x")
		defreg.d = NewDurationCounter("test_defreg_busy_seconds_total", "x")
		defreg.g = NewGauge("test_defreg_gauge", "x")
		NewGaugeFunc("test_defreg_fn", "x", func() float64 { return 1 })
		defreg.h = NewDurationHistogram("test_defreg_seconds", "x", DefBuckets...)
		defreg.cv = NewCounterVec("test_defreg_vec_total", "x", "kind", "a", "b")
		defreg.hv = NewDurationHistogramVec("test_defreg_vec_seconds", "x", "kind", []string{"a"}, DefBuckets...)
	})
	series := []string{
		"test_defreg_ops_total", "test_defreg_gauge", "test_defreg_fn",
		`test_defreg_vec_total{kind="a"}`, `test_defreg_vec_seconds_count{kind="a"}`,
		"test_defreg_seconds_count",
	}
	before := seriesValues(t, expoString(t, Default()), series)
	defreg.c.Inc()
	defreg.d.AddDuration(time.Millisecond)
	defreg.g.Set(int64(before["test_defreg_gauge"]) + 2)
	defreg.h.ObserveSince(time.Now().Add(-time.Millisecond))
	defreg.cv.With("a").Inc()
	defreg.hv.With("a").ObserveDuration(time.Millisecond)
	after := seriesValues(t, expoString(t, Default()), series)
	if got := after["test_defreg_fn"]; got != 1 {
		t.Errorf("test_defreg_fn = %v, want 1", got)
	}
	for _, name := range series {
		if name == "test_defreg_fn" {
			continue
		}
		w := 1.0
		if name == "test_defreg_gauge" {
			w = 2
		}
		if got := after[name] - before[name]; got != w {
			t.Errorf("%s moved by %v, want %v", name, got, w)
		}
	}
}

// seriesValues reads the values of the named series from an exposition,
// failing the test on one that is missing.
func seriesValues(t *testing.T, expo string, series []string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(series))
	for _, name := range series {
		var v float64
		found := false
		for _, line := range strings.Split(expo, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				if _, err := fmt.Sscan(rest, &v); err != nil {
					t.Fatalf("series %q: %v", name, err)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %q in default exposition", name)
		}
		out[name] = v
	}
	return out
}
