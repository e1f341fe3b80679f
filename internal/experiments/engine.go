package experiments

import "fmt"

// EngineMaintenance measures the paper's Figure-14 metric for the
// double-buffered engine (DESIGN.md §9) on the Twitter stream (z=50): the
// update time per element, split into the primary application of a bucket
// — window advance, re-scoring, ranked-list descents — and the structural
// delta replay that brings the recycled buffer up to the published front,
// plus the query p99 of the concurrent-serving workload under a live
// writer (maintenance must not buy ingest speed with reader latency). It
// returns a table and the BENCH_engine.json entries of the perf trajectory.
func (l *Lab) EngineMaintenance(workers, queries int) (*Table, []BenchEntry, error) {
	env, err := l.Env("Twitter", 50)
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = 4
	}
	if queries <= 0 {
		queries = 400
	}
	g, err := env.NewEngine(0)
	if err != nil {
		return nil, nil, err
	}
	if err := env.Replay(g, nil); err != nil {
		return nil, nil, err
	}
	// One empty trailing bucket absorbs the final catch-up, which
	// otherwise runs lazily at the next Ingest and would go unmeasured.
	if err := g.Ingest(g.Now()+1, nil); err != nil {
		return nil, nil, err
	}
	st := g.Stats()
	perElem := float64(st.MaintenanceTimePerElement().Nanoseconds()) / 1e3
	primary := float64(st.UpdateTimePerElement().Nanoseconds()) / 1e3
	catchUp := perElem - primary

	cs, err := RunConcurrent(env, workers, queries)
	if err != nil {
		return nil, nil, err
	}
	queryP99 := float64(cs.P99.Nanoseconds()) / 1e6

	t := &Table{
		Title: fmt.Sprintf("Engine maintenance: primary apply + delta-replay catch-up (Twitter, z=50, %d elements)",
			len(env.Data.Elements)),
		Header: []string{"update/elem (µs)", "primary (µs)", "catch-up (µs)", "query p99 (ms)"},
	}
	t.AddRow(fmtF(perElem, 2), fmtF(primary, 2), fmtF(catchUp, 2), fmtF(queryP99, 2))
	entries := []BenchEntry{
		{Name: "engine-update-time-per-element-delta", Value: perElem, Unit: "Microseconds",
			Extra: "primary apply + recycled-buffer catch-up"},
		{Name: "engine-primary-update-per-element-delta", Value: primary, Unit: "Microseconds"},
		{Name: "engine-catchup-per-element-delta", Value: catchUp, Unit: "Microseconds"},
		{Name: "engine-query-p99-delta", Value: queryP99, Unit: "Milliseconds"},
	}
	return t, entries, nil
}
