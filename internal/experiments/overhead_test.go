package experiments

import (
	"math"
	"runtime/debug"
	"testing"

	"github.com/social-streams/ksir/internal/metrics"
	"github.com/social-streams/ksir/internal/trace"
)

// One round at a small scale: the measurement must produce finite
// percentages and leave every process-wide switch it flips — metric and
// trace recording, the GC percent, the recorder's slow-op threshold — as it
// found it. The values themselves are noise at this size and not asserted.
func TestMetricsOverheadSmoke(t *testing.T) {
	gcBefore := debug.SetGCPercent(100)
	defer debug.SetGCPercent(gcBefore)
	metricsBefore, traceBefore := metrics.Enabled(), trace.Enabled()
	slowBefore := trace.Default().SlowThreshold()

	lab := NewLab(Scale{Elements: 1500, Queries: 10, TopicIters: 8, Seed: 5, WindowHours: 24})
	tab, o, err := lab.MetricsOverhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Notes) != 1 {
		t.Errorf("table has %d rows and %d notes, want the pair and one note", len(tab.Rows), len(tab.Notes))
	}
	for name, pct := range map[string]float64{"add": o.AddPct, "query p99": o.QueryP99Pct, "worst": o.Worst()} {
		if math.IsNaN(pct) || math.IsInf(pct, 0) || pct < 0 {
			t.Errorf("%s overhead = %v, want a finite non-negative percentage", name, pct)
		}
	}

	if got := metrics.Enabled(); got != metricsBefore {
		t.Errorf("metrics.Enabled() = %v after the run, %v before", got, metricsBefore)
	}
	if got := trace.Enabled(); got != traceBefore {
		t.Errorf("trace.Enabled() = %v after the run, %v before", got, traceBefore)
	}
	if got := trace.Default().SlowThreshold(); got != slowBefore {
		t.Errorf("slow-op threshold = %v after the run, %v before", got, slowBefore)
	}
	if got := debug.SetGCPercent(100); got != 100 {
		t.Errorf("GC percent = %d after the run, 100 before", got)
	}
}

// The gate fails on either path above the limit and only then.
func TestOverheadCheck(t *testing.T) {
	for _, tc := range []struct {
		o     Overhead
		limit float64
		pass  bool
	}{
		{Overhead{0, 0}, 2, true},
		{Overhead{1.3, 0.4}, 2, true},
		{Overhead{2, 2}, 2, true}, // the limit itself passes
		{Overhead{2.44, 0}, 2, false},
		{Overhead{0, 2.16}, 2, false},
		{Overhead{2.44, 2.16}, 2, false},
		{Overhead{1.3, 0.4}, 1, false},
	} {
		err := tc.o.Check(tc.limit)
		if (err == nil) != tc.pass {
			t.Errorf("%+v at limit %v: err = %v, want pass = %v", tc.o, tc.limit, err, tc.pass)
		}
	}
}
