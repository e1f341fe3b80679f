package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metricSpec is one catalogue entry of BENCHMARK.json, the single place
// units, directions and bounds are written down.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root, or from one
// directory up when run from the benchmark's own directory.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) && !filepath.IsAbs(path) {
		data, err = os.ReadFile(filepath.Join("..", path))
	}
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// measured is one metric's value in a result, with the number of samples
// behind it where it is a statistic of a sample.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// environment is recorded in every result file, so that a change in the
// numbers can be told apart from a change in the machine.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	FsyncUs    float64 `json:"env.fsync_probe_us"`
}

func readEnvironment(dir string) (environment, error) {
	env := environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	var err error
	env.FsyncUs, err = fsyncProbe(dir)
	return env, err
}

// outcome is one run of one workload: the result file's content.
type outcome struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	InputsSHA string              `json:"inputs_sha256"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	FirstErr  string              `json:"first_error,omitempty"`
	Invalid   string              `json:"invalid,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	Env       environment         `json:"env"`
}

// ratio is a/b, and 0 where b is: a layer a workload bypasses has no count
// to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// since gives the growth of the program's metric series between two
// readings.
func (c counters) since(before counters) func(series string) float64 {
	return func(series string) float64 { return c.reg[series] - before.reg[series] }
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run sets a workload up, measures it for the given time, checks its
// outputs and, on a traced run, replays the layers. Set-up runs `setups`
// times, so that setup_s can be a median.
func run(s spec, seed int64, seconds float64, traced bool, setups int, root, out string) (*outcome, error) {
	env, err := readEnvironment(root)
	if err != nil {
		return nil, err
	}
	r := newRecorder(traced)
	var b *bed
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if b, err = setUp(s, seed, seconds, root); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The queue-depth sampler is part of the traced run's observation.
	sampler := make(chan int, 1)
	if traced {
		go func() { sampler <- r.sampleWhile(ctx, b) }()
	} else {
		sampler <- 0
	}
	before := b.readCounters()
	if err := drives[s.name](ctx, b, r, time.Duration(seconds*float64(time.Second))); err != nil {
		return nil, err
	}
	after := b.readCounters()
	cancel()
	queueMax := <-sampler
	// Under a residency budget the live heap is read in a state the program
	// can be put in again: every stream hibernated, then the hottest ones the
	// budget holds brought back by an add, which builds both their buffers.
	// What is resident the instant the clients stop, and how much of it is
	// built, is the sweeper's and the materializer's timing.
	if s.resident > 0 {
		for _, h := range b.handles {
			if err := h.Hibernate(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < s.resident; i++ {
			if err := b.send(i, 1); err != nil {
				return nil, err
			}
		}
	}
	heap := float64(liveHeap()) - float64(b.heapBase)

	var quality float64
	if s.name == "query-storm" {
		if quality, err = b.quality(r); err != nil {
			return nil, err
		}
	}
	// Every run restarts the service and checks the answers; only a traced
	// run reports the operator's timings, and takes more samples for them.
	trials := 3
	if traced {
		trials = recoveryTrials
	}
	recovery, err := b.restarts(r, trials)
	if err != nil {
		return nil, err
	}
	if traced && s.streams == 1 {
		if err := b.coldTouches(context.Background(), r); err != nil {
			return nil, err
		}
	}

	o := &outcome{Workload: s.name, Seed: seed, Seconds: seconds, Traced: traced, InputsSHA: b.in.sha,
		Env: env, Metrics: make(map[string]measured)}
	set := func(name string, v float64, n int) { o.Metrics[name] = measured{Value: v, Samples: n} }
	// A percentile with fewer than ten samples beyond it is reported as 0.
	tail := func(name string, sm *samples, p float64) {
		v, ok := percentile(sm.sorted(), p)
		if !ok {
			v = 0
		}
		set(name, v, len(sm.v))
	}
	posts, queries := float64(r.posts.Load()), float64(r.queries.Load())
	wall := r.wall.Seconds()
	delta := after.since(before)

	set("setup_s", median(setupS), len(setupS))
	set("ingest_posts_per_s", posts/wall, int(posts))
	tail("add_p50_ms", &r.add, 50)
	tail("query_p50_ms", &r.query, 50)
	set("queries_per_s", queries/wall, int(queries))
	set("heap_live_mb", heap/(1<<20), 1)
	set("disk_bytes_per_post", ratio(delta("ksir_wal_appended_bytes_total")+delta("ksir_checkpoint_bytes_total"), posts), int(posts))

	if traced {
		// End-to-end by nature, but not defined or not steady on all four
		// workloads (README.md says why), so carried with the per-layer list.
		tail("mtts_p50_ms", &r.mtts, 50)
		tail("activation_p50_ms", &r.activation, 50)
		set("recovery_ms", median(recovery), len(recovery))
		tail("add_p99_ms", &r.add, 99)
		tail("query_p99_ms", &r.query, 99)
		tail("activation_p95_ms", &r.activation, 95)
		tail("refresh_lag_p50_ms", &r.refresh, 50)
		set("quality_vs_celf", quality, qualityQueries)
		set("failed_share", ratio(float64(r.failed.Load()), float64(r.attempted.Load())), int(r.attempted.Load()))
		set("env.fsync_probe_us", env.FsyncUs, 50)
		b.layerMetrics(o, r, before, after, queueMax)
		layers, err := replayLayers(b, r, r.serviceUs(classAdd), r.serviceUs(classQuery))
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		for name, v := range layers {
			set(name, v, 0)
		}
		if err := r.spans.write(filepath.Join(out, s.name+".trace.json")); err != nil {
			return nil, err
		}
	}

	o.Attempted, o.Failed = r.attempted.Load(), r.failed.Load()
	o.Correct = o.Failed == 0
	if r.err != nil {
		o.FirstErr = r.err.Error()
	}
	// An open-loop run whose generator fell behind its own schedule measured
	// the generator. One late wake-up in a run is the scheduler on two shared
	// cores; more than one in twenty is the generator.
	if woke, late := r.woke.Load(), r.wokeLate.Load(); s.name == "serve-mixed" && late*20 > woke {
		o.Invalid = fmt.Sprintf("load generator woke more than %v late %d times in %d", lagLimit, late, woke)
	}
	return o, nil
}

// layerMetrics derives the per-layer numbers that are counts taken around
// the measured phase: the program's metric registry, the streams' stats,
// the runtime's memory statistics and the load generators' own health.
func (b *bed) layerMetrics(o *outcome, r *recorder, before, after counters, queueMax int) {
	set := func(name string, v float64) { o.Metrics[name] = measured{Value: v} }
	delta := after.since(before)
	posts, queries := float64(r.posts.Load()), float64(r.queries.Load())

	elements := delta("ksir_engine_elements_ingested_total")
	set("core.ingest_us_per_post", ratio(1e6*delta("ksir_engine_update_seconds_total"), elements))
	set("core.replay_us_per_post", ratio(1e6*delta("ksir_engine_replay_seconds_total"), elements))
	for alg, name := range map[string]string{"MTTD": "core.query_mttd_us", "MTTS": "core.query_mtts_us"} {
		series := `ksir_engine_query_duration_seconds_%s{algorithm="` + alg + `"}`
		set(name, ratio(1e6*delta(fmt.Sprintf(series, "sum")), delta(fmt.Sprintf(series, "count"))))
	}
	ckpts := delta("ksir_checkpoints_total")
	set("persist.checkpoints", ckpts)
	set("persist.checkpoint_stall_ms", ratio(1e3*delta("ksir_checkpoint_duration_seconds_sum"), ckpts))
	set("persist.fsyncs_per_post_live", ratio(delta("ksir_wal_fsyncs_total"), posts))
	set("hub.batch_size_mean", ratio(delta("ksir_pipeline_ops_total"), delta("ksir_pipeline_commit_batches_total")))
	set("hub.queue_depth_max", float64(queueMax))
	set("hub.activations", delta("ksir_residency_activations_total"))
	set("hub.hibernations", delta("ksir_residency_hibernations_total"))
	set("hub.ghost_hits", delta("ksir_hub_ghost_hits_total"))
	set("hub.second_chance_saves", delta("ksir_hub_second_chance_saves_total"))
	set("hub.prefetch_hit_share", ratio(delta("ksir_hub_prefetch_hits_total"), delta("ksir_hub_prefetch_activations_total")))
	set("hub.lazy_materializations", delta("ksir_hub_lazy_materialize_total"))
	var resident, bytes float64
	for _, st := range after.streams {
		if st.Residency.Resident {
			resident++
			bytes += float64(st.Residency.ResidentBytes)
		}
	}
	set("hub.resident_bytes_per_stream", ratio(bytes, resident))

	set("runtime.cpu_us_per_op", ratio(us(after.cpu-before.cpu), posts+queries))
	set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	set("runtime.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)

	set("loadgen.max_lag_ms", ms(time.Duration(r.maxLag.Load())))
	set("loadgen.late_share", ratio(float64(r.late.Load()), float64(r.paced.Load())))
	slo := 0.0
	for i := range r.stepAdd {
		p99, _ := percentile(r.stepAdd[i].sorted(), 99)
		set(fmt.Sprintf("loadgen.step%d.add_p99_ms", i+1), p99)
		// A backlog of a few posts is the call in flight, not growth.
		if len(r.stepAdd[i].v) > 0 && p99 <= 25 && r.backlog[i] <= 256 {
			slo = b.in.spec.addRate * float64(i+1)
		}
	}
	set("loadgen.backlog_end_step3", float64(r.backlog[2]))
	set("loadgen.max_rate_in_slo", slo)

	set("bench.trace_overhead_pct", r.traceOverheadPct())
}

// sampleWhile samples the writer queue depth of stream 0 until ctx ends and
// returns the deepest queue seen.
func (r *recorder) sampleWhile(ctx context.Context, b *bed) int {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	deepest := 0
	for {
		select {
		case <-ctx.Done():
			return deepest
		case <-t.C:
			deepest = max(deepest, b.handles[0].Stats().Pipeline.QueueDepth)
		}
	}
}

// print writes the result as a table of every catalogue metric the run
// reports, with unit, direction, bound and sample count.
func (o *outcome) print(w io.Writer, list []metricSpec) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0f s  traced %v  inputs_sha256 %s\n", o.Workload, o.Seed, o.Seconds, o.Traced, o.InputsSHA)
	fmt.Fprintf(w, "  nproc %d  GOMAXPROCS %d  %s  commit %s  env.fsync_probe_us %.1f\n", o.Env.NProc, o.Env.GoMaxProcs, o.Env.GoVersion, o.Env.Commit, o.Env.FsyncUs)
	for _, m := range list {
		v := o.Metrics[m.Name]
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("n=%d", v.Samples)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-8s %-6s bound %-4s %s\n", m.Name, v.Value, m.Unit, m.Better, bound, samples)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v", o.Attempted, o.Failed, o.Correct)
	if o.FirstErr != "" {
		fmt.Fprintf(w, "  first failure: %s", o.FirstErr)
	}
	if o.Invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s", o.Invalid)
	}
	fmt.Fprintln(w)
}

// write stores the result as DIR/<workload>.result.json, the file compare
// reads.
func (o *outcome) write(dir string) error {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, o.Workload+".result.json"), data, 0o644)
}

// printContractLine prints the result as the one JSON object the driver reads
// from the last line of standard output.
func (o *outcome) printContractLine() error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, make(map[string]metric)}
	for name, v := range o.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// restrict keeps the metrics of one catalogue list, with their units, and
// fails if the run did not produce one of them.
func (o *outcome) restrict(list []metricSpec) (map[string]measured, error) {
	out := make(map[string]measured, len(list))
	for _, m := range list {
		v, ok := o.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s produced no %s", o.Workload, m.Name)
		}
		v.Unit = m.Unit
		out[m.Name] = v
	}
	return out, nil
}
