// Command spec17d serves the reproduction's experiment suite over
// HTTP/JSON — the batch spec17 CLI turned into a long-running
// characterization service with result caching, request coalescing,
// batch streaming, request tracing, and Prometheus metrics.
//
// Usage:
//
//	spec17d [-addr :8417] [-cache n] [-labs n] [-workers n]
//	        [-sim-workers n] [-batch-concurrency n]
//	        [-engine exact|analytic|auto]
//	        [-store file] [-checkpoint d] [-drain d]
//	        [-read-header-timeout d] [-read-timeout d] [-idle-timeout d]
//	        [-rate-limit r] [-burst n] [-max-inflight n]
//	        [-request-timeout d]
//	        [-jobs] [-max-jobs n] [-job-workers n] [-webhook-timeout d]
//	        [-trace] [-trace-ring n] [-trace-slow d]
//	        [-insight] [-insight-interval d] [-slo-latency-ms n]
//	        [-pprof-addr addr] [-log-level level]
//
// Endpoints:
//
//	GET  /v1                              discovery document
//	GET  /v1/experiments                  catalog of experiment ids (paginated)
//	GET  /v1/experiments/{id}?instructions=N&warmup=M
//	GET  /v1/report?instructions=N&warmup=M
//	GET  /v1/batch?experiments=a,b,c      NDJSON result stream
//	POST /v1/batch                        same, JSON body
//	POST /v1/jobs                         submit an async experiment sweep
//	GET  /v1/jobs                         list jobs (paginated)
//	GET  /v1/jobs/{id}                    job record and per-item progress
//	DEL  /v1/jobs/{id}                    cancel a job
//	GET  /v1/jobs/{id}/results            finished job's results, NDJSON
//	GET  /v1/jobs/{id}/events             job progress as SSE
//	GET  /v1/healthz                      liveness (503 once draining)
//	GET  /v1/status                       runtime introspection
//	GET  /v1/traces                       finished request traces
//	GET  /v1/metrics/history              sampled metric time series
//	GET  /v1/accuracy                     analytic-vs-exact drift totals
//	GET  /v1/events                       recorded anomaly events
//	GET  /healthz
//	GET  /metrics                         Prometheus text format
//
// See docs/API.md for the full endpoint reference, docs/JOBS.md for
// the async-job subsystem, docs/SERVER.md for caching and metrics
// details, and docs/OBSERVABILITY.md for tracing and logging.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// daemonConfig is everything the flags decide.
type daemonConfig struct {
	addr       string
	cache      int
	labs       int
	workers    int
	simWorkers int
	batchConc  int
	eng        engine.Tier
	storePath  string
	checkpoint time.Duration
	drain      time.Duration
	readHdrTO  time.Duration
	readTO     time.Duration
	idleTO     time.Duration

	rateLimit float64
	burst     float64
	maxInflt  int
	requestTO time.Duration

	jobs       bool
	maxJobs    int
	jobWorkers int
	webhookTO  time.Duration

	trace     bool
	traceRing int
	traceSlow time.Duration

	insight         bool
	insightInterval time.Duration
	sloLatencyMS    int

	pprofAddr string
	logLevel  slog.Level
}

// parseFlags parses the daemon's command line. Errors (including an
// invalid duration or log level) are printed to stderr naming the
// offending flag, and the returned error tells main to exit 2 —
// except flag.ErrHelp, which exits 0.
func parseFlags(args []string, stderr io.Writer) (*daemonConfig, error) {
	cfg := &daemonConfig{}
	fs := flag.NewFlagSet("spec17d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", ":8417", "listen address")
	fs.IntVar(&cfg.cache, "cache", 512, "max cached experiment results (LRU)")
	fs.IntVar(&cfg.labs, "labs", 4, "max resident fleet characterizations, one per fidelity (LRU)")
	fs.IntVar(&cfg.workers, "workers", 2, "max concurrent lab computations")
	fs.IntVar(&cfg.simWorkers, "sim-workers", 0, "max concurrent leaf simulations across all labs (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.batchConc, "batch-concurrency", 4, "max experiments one batch request evaluates at once")
	engFlag := fs.String("engine", "exact", "default measurement engine for requests without ?engine= (exact, analytic, auto)")
	fs.StringVar(&cfg.storePath, "store", "", "measurement-store snapshot file: loaded at boot (warm start), persisted on shutdown")
	fs.DurationVar(&cfg.checkpoint, "checkpoint", 0, "background store-checkpoint interval (0 disables; requires -store)")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-shutdown drain timeout")
	fs.DurationVar(&cfg.readHdrTO, "read-header-timeout", 10*time.Second, "max time for a connection to send its request headers")
	fs.DurationVar(&cfg.readTO, "read-timeout", 0, "max time to read an entire request (0 disables; nonzero also cuts long batch streams)")
	fs.DurationVar(&cfg.idleTO, "idle-timeout", 2*time.Minute, "max keep-alive idle time between requests")
	fs.Float64Var(&cfg.rateLimit, "rate-limit", 0, "per-client admission tokens per second, one token = one default-fidelity experiment (0 disables)")
	fs.Float64Var(&cfg.burst, "burst", 0, "per-client admission bucket capacity (0 = max(rate-limit, 1))")
	fs.IntVar(&cfg.maxInflt, "max-inflight", 0, "max concurrently admitted compute requests across all clients (0 = unlimited)")
	fs.DurationVar(&cfg.requestTO, "request-timeout", 0, "server-side deadline per compute request (0 disables)")
	fs.BoolVar(&cfg.jobs, "jobs", true, "serve the async-job endpoints (/v1/jobs)")
	fs.IntVar(&cfg.maxJobs, "max-jobs", 256, "max retained job records; submitting past it evicts the oldest finished job")
	fs.IntVar(&cfg.jobWorkers, "job-workers", 2, "max jobs executing concurrently")
	fs.DurationVar(&cfg.webhookTO, "webhook-timeout", 5*time.Second, "per-attempt webhook delivery timeout (negative disables webhooks)")
	fs.BoolVar(&cfg.trace, "trace", true, "record per-request span trees, served at /v1/traces")
	fs.IntVar(&cfg.traceRing, "trace-ring", 256, "finished traces to retain in memory")
	fs.DurationVar(&cfg.traceSlow, "trace-slow", 0, "log the full span tree of traces slower than this (0 disables)")
	fs.BoolVar(&cfg.insight, "insight", true, "run the self-monitoring plane (/v1/metrics/history, /v1/accuracy, /v1/events)")
	fs.DurationVar(&cfg.insightInterval, "insight-interval", 5*time.Second, "insight sampling period; history keeps the SLO's 1h slow window at this period")
	fs.IntVar(&cfg.sloLatencyMS, "slo-latency-ms", 500, "per-request latency objective for SLO burn tracking, in milliseconds (0 disables)")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it private)")
	fs.TextVar(&cfg.logLevel, "log-level", slog.LevelInfo, "minimum log `level` (debug, info, warn, error)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	tier, err := engine.ParseTier(*engFlag)
	if err != nil {
		fmt.Fprintf(stderr, "invalid value %q for flag -engine: %v\n", *engFlag, err)
		fs.Usage()
		return nil, err
	}
	cfg.eng = tier
	for _, check := range []struct {
		name string
		bad  bool
	}{
		{"rate-limit", cfg.rateLimit < 0},
		{"burst", cfg.burst < 0},
		{"max-inflight", cfg.maxInflt < 0},
		{"request-timeout", cfg.requestTO < 0},
		{"max-jobs", cfg.maxJobs < 0},
		{"job-workers", cfg.jobWorkers < 0},
		{"insight-interval", cfg.insightInterval < 0},
		{"slo-latency-ms", cfg.sloLatencyMS < 0},
	} {
		if check.bad {
			err := fmt.Errorf("must not be negative")
			fmt.Fprintf(stderr, "invalid value for flag -%s: %v\n", check.name, err)
			fs.Usage()
			return nil, err
		}
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	logger := telemetry.NewLogger(os.Stderr, cfg.logLevel)

	// One metrics registry carries the server's, scheduler's, store's,
	// and tracer's instruments, so /metrics exposes spec17_store_*,
	// spec17_sched_*, and spec17_stage_* too.
	reg := metrics.NewRegistry()

	// The insight plane is created before the tracer and the store so
	// both can deliver their anomaly hooks (slow traces, checkpoint
	// failures) into its event ring; the store itself is attached
	// afterwards, once it exists.
	var plane *insight.Plane
	if cfg.insight {
		plane = insight.New(insight.Config{
			Metrics:  reg,
			Log:      logger,
			Interval: cfg.insightInterval,
			SLO: insight.SLOConfig{
				Latency: time.Duration(cfg.sloLatencyMS) * time.Millisecond,
			},
		})
	}

	var tracer *telemetry.Tracer
	if cfg.trace {
		tcfg := telemetry.TracerConfig{
			Capacity:      cfg.traceRing,
			SlowThreshold: cfg.traceSlow,
			Metrics:       reg,
			Log:           logger,
		}
		if plane != nil {
			tcfg.OnSlow = plane.OnSlowTrace
		}
		tracer = telemetry.NewTracer(tcfg)
	}

	scfg := store.Config{Path: cfg.storePath, Metrics: reg, Log: logger}
	if plane != nil {
		scfg.OnCheckpointError = plane.OnCheckpointError
	}
	st, err := store.Open(scfg)
	if err != nil {
		logger.Warn("opening store; starting cold", "err", err)
	}
	if cfg.storePath != "" {
		logger.Info("measurement store loaded", "path", cfg.storePath, "records", st.Len())
	}
	if cfg.checkpoint > 0 {
		if cfg.storePath == "" {
			logger.Warn("-checkpoint without -store has nothing to persist")
		} else {
			stop := st.StartCheckpointing(cfg.checkpoint)
			defer stop()
			logger.Info("checkpointing store", "interval", cfg.checkpoint)
		}
	}

	if plane != nil {
		plane.AttachStore(st)
		plane.Start()
		defer plane.Stop()
		logger.Info("insight plane sampling", "interval", plane.Interval(),
			"ring", plane.Recorder().Capacity(), "slo_latency_ms", cfg.sloLatencyMS)
	}

	if cfg.pprofAddr != "" {
		go servePprof(cfg.pprofAddr, logger)
	}

	s := server.New(server.Config{
		ResultCacheSize:   cfg.cache,
		LabCacheSize:      cfg.labs,
		Workers:           cfg.workers,
		SimWorkers:        cfg.simWorkers,
		BatchConcurrency:  cfg.batchConc,
		DefaultEngine:     cfg.eng,
		ReadHeaderTimeout: cfg.readHdrTO,
		ReadTimeout:       cfg.readTO,
		IdleTimeout:       cfg.idleTO,
		RateLimit:         cfg.rateLimit,
		Burst:             cfg.burst,
		MaxInFlight:       cfg.maxInflt,
		RequestTimeout:    cfg.requestTO,
		JobsDisabled:      !cfg.jobs,
		MaxJobs:           cfg.maxJobs,
		JobWorkers:        cfg.jobWorkers,
		WebhookTimeout:    cfg.webhookTO,
		Store:             st,
		Metrics:           reg,
		Log:               logger,
		Tracer:            tracer,
		Insight:           plane,
	})

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		logger.Error("listen", "addr", cfg.addr, "err", err)
		os.Exit(1)
	}
	logger.Info("serving", "addr", l.Addr().String(),
		"tracing", tracer != nil, "catalog", "/v1/experiments", "metrics", "/metrics")

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil {
			// The listener died out from under us; persist what the
			// process measured before giving up.
			if serr := saveStore(st, logger); serr != nil {
				logger.Error("persisting store", "err", serr)
			}
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
		return
	case got := <-sig:
		logger.Info("draining", "signal", got.String(), "timeout", cfg.drain,
			"note", "signal again to force")
	}

	// Drain in the background; a second signal cuts it short with a
	// best-effort store save and an immediate close.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctx) }()

	var shutdownErr error
	select {
	case shutdownErr = <-shutdownDone:
	case got := <-sig:
		logger.Warn("forcing shutdown", "signal", got.String())
		if err := saveStore(st, logger); err != nil {
			logger.Error("persisting store", "err", err)
		}
		_ = s.Close()
		os.Exit(1)
	}

	if err := saveStore(st, logger); err != nil {
		logger.Error("persisting store", "err", err)
	}
	if shutdownErr != nil {
		logger.Error("shutdown", "err", shutdownErr)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// servePprof serves net/http/pprof on its own listener, separate from
// the API address so profiling is never reachable through whatever
// exposes the service — an explicit mux rather than DefaultServeMux,
// so importing pprof cannot leak handlers onto the API.
func servePprof(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux,
		ReadHeaderTimeout: 10 * time.Second, MaxHeaderBytes: 64 << 10}
	logger.Info("pprof listening", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("pprof serve", "err", err)
	}
}

// saveStore persists the measurement store after the drain, so every
// measurement the process made warms the next one.
func saveStore(st *store.Store, logger *slog.Logger) error {
	if st.Path() == "" {
		return nil
	}
	if err := st.Save(); err != nil {
		return err
	}
	logger.Info("measurement store persisted", "path", st.Path(), "records", st.Len())
	return nil
}
