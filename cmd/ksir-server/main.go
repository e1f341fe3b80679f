// Command ksir-server serves k-SIR queries over HTTP for live streams.
// It loads a trained model (ksir model file) or trains one from a text
// corpus at startup, registers a "default" stream in a multi-tenant hub,
// and serves the versioned /v1 API:
//
//	ksir-server -corpus corpus.txt -topics 50 -addr :8080
//	ksir-server -model model.bin -addr :8080
//
// With -data-dir the hub is durable: every stream's accepted posts are
// write-ahead logged and its state periodically checkpointed under the
// directory, all streams are recovered on startup, and SIGINT/SIGTERM
// triggers a graceful shutdown — drain HTTP, final checkpoint for every
// stream, closed events to SSE subscribers:
//
//	ksir-server -model model.bin -data-dir /var/lib/ksir -fsync interval
//
//	curl -XPOST localhost:8080/v1/streams -d '{"name":"feed","bucket_sec":60}'
//	curl -XPOST localhost:8080/v1/streams/feed/posts -d '{"id":1,"time":60,"text":"late goal wins the derby"}'
//	curl -XPOST localhost:8080/v1/streams/feed/flush -d '{"now":120}'
//	curl -XPOST localhost:8080/v1/streams/feed/query -d '{"k":10,"keywords":["soccer"],"explain":true}'
//	curl -N  'localhost:8080/v1/streams/feed/subscribe?k=5&keywords=soccer&every=15m'
//
// Observability: logs are structured (log/slog; -log-level, -log-format),
// request traces are recorded in-process and served at GET /debug/traces
// (-trace-sample, -trace-buffer), ops slower than -slow-op-threshold are
// always kept and logged with their span breakdown, and the -metrics-addr
// sidecar additionally serves /debug/traces and net/http/pprof (-pprof
// exposes pprof on the main listener too).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ksir "github.com/social-streams/ksir"
	"github.com/social-streams/ksir/internal/server"
	"github.com/social-streams/ksir/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modelPath = flag.String("model", "", "load a trained model file (see Model.SaveFile)")
		corpus    = flag.String("corpus", "", "train from a text file, one document per line")
		topics    = flag.Int("topics", 50, "topics when training from -corpus")
		iters     = flag.Int("iters", 100, "Gibbs sweeps when training")
		btm       = flag.Bool("btm", false, "use the biterm topic model (short texts)")
		saveModel = flag.String("save-model", "", "after training, save the model here")
		window    = flag.Duration("window", 24*time.Hour, "sliding window length T")
		bucket    = flag.Duration("bucket", 15*time.Minute, "batch update interval L")
		lambda    = flag.Float64("lambda", 0.5, "semantic/influence trade-off (0 = pure influence)")
		eta       = flag.Float64("eta", 20, "influence rescale")

		metricsAddr = flag.String("metrics-addr", "", "also serve GET /metrics, GET /debug/traces and /debug/pprof/ on this separate listener (scrape/debug sidecar); /metrics and /debug/traces are always available on -addr")
		pprofOn     = flag.Bool("pprof", false, "also expose /debug/pprof/ on the main -addr listener (the -metrics-addr sidecar always serves it)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log encoding: text|json")

		traceSample = flag.Float64("trace-sample", trace.DefaultSampleRate, "fraction of ops head-sampled into /debug/traces (0 disables sampling; slow ops are always kept)")
		traceBuffer = flag.Int("trace-buffer", trace.DefaultCapacity, "max traces held in the in-process ring buffer")
		slowOp      = flag.Duration("slow-op-threshold", trace.DefaultSlowThreshold, "ops at least this slow are always traced and logged with their span breakdown (0 disables)")

		dataDir   = flag.String("data-dir", "", "enable durability: WAL + checkpoints per stream under this directory (recovered on startup)")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: always|interval|never")
		fsyncInt  = flag.Duration("fsync-interval", time.Second, "max sync lag under -fsync interval")
		ckptEvery = flag.Int64("checkpoint-every", 64, "buckets between automatic checkpoints")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown HTTP drain budget")

		maxResident  = flag.Int("max-resident-streams", 0, "hot-tier budget: hibernate the coldest streams past this many resident (0 = unbounded)")
		maxResidentB = flag.Int64("max-resident-bytes", 0, "hot-tier budget: hibernate the coldest streams past this many summed resident bytes (0 = unbounded)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	rec := trace.Default()
	rec.SetSampleRate(*traceSample)
	rec.SetCapacity(*traceBuffer)
	rec.SetSlowThreshold(*slowOp)
	rec.SetLogger(logger)

	var model *ksir.Model
	switch {
	case *modelPath != "":
		model, err = ksir.LoadModelFile(*modelPath)
		if err != nil {
			fatal(err)
		}
		logger.Info("loaded model", "topics", model.Topics(), "vocab", model.VocabSize())
	case *corpus != "":
		texts, err := readLines(*corpus)
		if err != nil {
			fatal(err)
		}
		opts := []ksir.ModelOption{
			ksir.WithTopics(*topics),
			ksir.WithIterations(*iters),
		}
		if *btm {
			opts = append(opts, ksir.WithBTM())
		}
		logger.Info("training model", "documents", len(texts), "topics", *topics)
		start := time.Now()
		model, err = ksir.TrainModel(texts, opts...)
		if err != nil {
			fatal(err)
		}
		logger.Info("trained model",
			"duration", time.Since(start).Round(time.Millisecond),
			"vocab", model.VocabSize())
		if *saveModel != "" {
			if err := model.SaveFile(*saveModel); err != nil {
				fatal(err)
			}
			logger.Info("model saved", "path", *saveModel)
		}
	default:
		fatal(fmt.Errorf("need -model or -corpus"))
	}

	// Passing the same options to NewHub makes streams created over
	// POST /v1/streams inherit the deployment's λ, -lambda 0 included.
	defaults := ksir.Options{Window: *window, Bucket: *bucket, Lambda: lambda, Eta: *eta}

	var hub *ksir.Hub
	if *dataDir != "" {
		policy, err := ksir.ParseFsyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		hub, err = ksir.OpenHub(*dataDir, model, ksir.PersistOptions{
			Fsync:              policy,
			FsyncInterval:      *fsyncInt,
			CheckpointEvery:    *ckptEvery,
			MaxResidentStreams: *maxResident,
			MaxResidentBytes:   *maxResidentB,
			Logger:             logger,
		})
		if err != nil {
			fatal(err)
		}
		if names := hub.List(); len(names) > 0 {
			logger.Info("recovered streams", "count", len(names), "dir", *dataDir, "streams", names)
		}
	} else {
		hub = ksir.NewHub()
	}
	if _, err := hub.Get(server.DefaultStream); err != nil {
		if _, err := hub.Create(server.DefaultStream, model, defaults); err != nil {
			fatal(err)
		}
	}

	handler := server.NewHub(hub, model, defaults)
	handler.SetLogger(logger)
	if *pprofOn {
		handler.EnablePprof()
		logger.Info("pprof enabled on main listener", "addr", *addr)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving /v1", "addr", *addr, "default_stream", server.DefaultStream,
		"trace_sample", *traceSample, "slow_op_threshold", *slowOp)

	// Optional scrape/debug sidecar: /metrics, /debug/traces and pprof on
	// their own listener, so operators can firewall the API port while
	// Prometheus and profilers talk to a private one.
	var msrv *http.Server
	if *metricsAddr != "" {
		mmux := http.NewServeMux()
		mmux.Handle("GET /metrics", handler.MetricsHandler())
		mmux.Handle("GET /debug/traces", handler.TracesHandler())
		server.RegisterPprof(mmux)
		msrv = &http.Server{Addr: *metricsAddr, Handler: mmux}
		go func() { errc <- msrv.ListenAndServe() }()
		logger.Info("serving metrics sidecar", "addr", *metricsAddr,
			"routes", "/metrics /debug/traces /debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown, in order: (1) end live SSE subscriptions with a
	// closed event — they never finish on their own and would hold the
	// drain open to its deadline; (2) drain HTTP, letting ordinary
	// in-flight requests (ingests included) complete within the budget;
	// (3) close every stream, whose final checkpoints make all accepted
	// state durable.
	logger.Info("shutting down: draining HTTP, checkpointing streams")
	if msrv != nil {
		_ = msrv.Close() // scrapes are stateless; no drain needed
	}
	handler.StopSubscriptions()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("drain failed", "error", err)
	}
	if err := hub.CloseAll(); err != nil {
		logger.Error("final checkpoint failed", "error", err)
	}
	logger.Info("shutdown complete")
}

// buildLogger constructs the process logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksir-server:", err)
	os.Exit(1)
}
