// Command ibox-serve runs the model-serving daemon: trained iBox
// artifacts (iBoxNet parameter profiles, iBoxML checkpoints) behind a
// long-running HTTP/JSON API. See internal/serve and DESIGN.md's
// "Serving architecture" and "Serving observability" sections.
//
// Usage:
//
//	ibox-serve -models ./models                        # serve on :8080
//	ibox-serve -models ./models -warm path-a.json      # preload a model
//	ibox-serve -models ./models -debug -addr :8080     # + expvar/pprof
//	ibox-serve -models ./models -trace-sample 0.01 -trace-out trace.json
//
// Query it:
//
//	curl localhost:8080/v1/models
//	curl -d '{"model":"path-a.json","protocol":"cubic","duration_s":10,"seed":1}' \
//	     localhost:8080/v1/simulate
//	curl -N -H 'Accept: text/event-stream' \
//	     -d '{"model":"ml.json","seed":1,"input":...}' \
//	     localhost:8080/v1/replay    # window predictions stream as SSE
//	curl localhost:8080/metrics        # Prometheus exposition
//	curl localhost:8080/statusz        # rolling-window load view
//	curl localhost:8080/healthz?format=json  # judged health + SLO + drift
//
// Live emulation sessions (DESIGN.md "Session control plane"): create a
// stateful closed-loop emulation with POST /v1/sessions, stream its
// telemetry with `curl -N .../events` (SSE), and mutate the live path
// (POST .../path) like tc. -max-sessions / -max-sessions-per-tenant cap
// concurrency, -session-ttl reaps idle sessions, and -session-state
// checkpoints live sessions to disk during graceful drain.
//
// Model-health observability (DESIGN.md "Model-health observability"):
// replay requests with observed delays are sampled for online drift
// scoring against each checkpoint's embedded calibration baseline
// (-drift-every; -quarantine 503s failing models), and an SLO burn-rate
// engine judges p99 latency, error ratio and drift into the /healthz
// state (-slo-latency, -slo-latency-target, -slo-error-target). Watch it
// live with ibox-stats -watch localhost:8080.
//
// All output is structured JSON logs on stderr (one "access" line per
// /v1 request); -log-level tunes verbosity. The daemon drains
// gracefully on SIGINT/SIGTERM: readiness flips to 503, in-flight
// requests finish (up to -drain-timeout), then it exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ibox/internal/obs"
	"ibox/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "address to listen on")
		modelDir     = flag.String("models", "", "directory of trained model artifacts (required)")
		maxModels    = flag.Int("max-models", 16, "how many models to keep warm (LRU beyond)")
		warm         = flag.String("warm", "", "comma-separated model ids to preload at startup")
		batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "micro-batch dispatch window")
		batchMax     = flag.Int("batch-max", 16, "flush a micro-batch early at this many requests")
		streamChunk  = flag.Int("stream-chunk", 0, "windows per streamed /v1/replay chunk; 0 = default 64")
		workers      = flag.Int("workers", 0, "simulation pool width; 0 = one worker per CPU")
		maxConc      = flag.Int("max-concurrency", 0, "max simulate requests executing at once; 0 = 2x workers")
		maxQueue     = flag.Int("queue", 64, "max simulate requests waiting for a slot before shedding with 429")
		maxBody      = flag.Int64("max-body", 8<<20, "max request body bytes")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request deadline (overridable per request via timeout_ms)")
		debug        = flag.Bool("debug", false, "also serve /debug/vars and /debug/pprof")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		logLevel     = flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error")
		traceSample  = flag.Float64("trace-sample", 0, "record a trace span lane for this fraction of requests (0 disables)")
		traceOut     = flag.String("trace-out", "", "write sampled request spans as Chrome trace-event JSON here on shutdown")
		spanLimit    = flag.Int("span-limit", 4096, "retain at most this many finished spans (oldest overwritten)")
		driftEvery   = flag.Int("drift-every", 0, "score every Nth eligible replay for model drift (0 = default 8, negative disables)")
		quarantine   = flag.Bool("quarantine", false, "answer 503 for models whose drift verdict is failing")
		sloLatency   = flag.Duration("slo-latency", time.Second, "latency SLO threshold: this fraction of requests must finish under it")
		sloLatPct    = flag.Float64("slo-latency-target", 0.99, "good-event fraction the latency SLO promises")
		sloErrPct    = flag.Float64("slo-error-target", 0.99, "non-error fraction the error-ratio SLO promises")
		maxSessions  = flag.Int("max-sessions", 0, "max live emulation sessions across all tenants; 0 = default 256")
		maxSessTen   = flag.Int("max-sessions-per-tenant", 0, "max live sessions per tenant; 0 = the global cap")
		sessionTTL   = flag.Duration("session-ttl", 0, "reap sessions idle this long (no events read, no mutations); 0 = default 15m, negative disables")
		sessionState = flag.String("session-state", "", "checkpoint live-session state to this file during graceful drain")
	)
	flag.Parse()

	// Serving is long-running and observable by design: metrics are always
	// on (scrape /metrics; -debug adds expvar/pprof), and all process
	// output is structured JSON logs on stderr.
	reg := obs.Enable()
	logger := slog.New(obs.NewLogHandler(os.Stderr, obs.ParseLogLevel(*logLevel)))
	obs.SetLogger(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	if *modelDir == "" {
		fatal("missing flag", errors.New("-models is required"))
	}
	if *traceSample > 0 {
		// Bound span memory: sampled request spans overwrite the oldest
		// once the ring fills, so uptime doesn't grow the heap.
		reg.SetSpanLimit(*spanLimit)
	}

	s, err := serve.NewServer(serve.Config{
		ModelDir:             *modelDir,
		MaxModels:            *maxModels,
		Workers:              *workers,
		BatchWindow:          *batchWindow,
		BatchMax:             *batchMax,
		StreamChunk:          *streamChunk,
		MaxConcurrent:        *maxConc,
		MaxQueue:             *maxQueue,
		MaxBodyBytes:         *maxBody,
		DefaultTimeout:       *timeout,
		Debug:                *debug,
		TraceSample:          *traceSample,
		DriftEvery:           *driftEvery,
		Quarantine:           *quarantine,
		SLOLatency:           *sloLatency,
		SLOLatencyTarget:     *sloLatPct,
		SLOErrorTarget:       *sloErrPct,
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *maxSessTen,
		SessionTTL:           *sessionTTL,
		SessionStatePath:     *sessionState,
	})
	if err != nil {
		fatal("startup", err)
	}
	if *warm != "" {
		var ids []string
		for _, id := range strings.Split(*warm, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		if err := s.Registry().Warm(ids); err != nil {
			fatal("warm", err)
		}
		logger.Info("warmed models", "count", len(ids))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(*addr) }()
	logger.Info("serving", "models", *modelDir, "addr", *addr,
		"log_level", *logLevel, "trace_sample", *traceSample)

	select {
	case err := <-done:
		fatal("listen", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("draining", "timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		fatal("drain", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve", err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace-out", err)
		}
		if err := reg.TraceJSON(f); err != nil {
			fatal("trace-out", err)
		}
		if err := f.Close(); err != nil {
			fatal("trace-out", err)
		}
		logger.Info("wrote trace", "path", *traceOut)
	}
	logger.Info("drained cleanly")
}
