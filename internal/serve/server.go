package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ibox/internal/cc"
	"ibox/internal/core"
	"ibox/internal/iboxnet"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/session"
	"ibox/internal/sim"
	"ibox/internal/trace"
	"ibox/internal/wire"
)

// Config parameterizes a Server. Zero values select serving defaults.
type Config struct {
	// ModelDir is the directory of trained artifacts the registry serves.
	ModelDir string
	// MaxModels bounds how many models stay warm (LRU beyond); default 16.
	MaxModels int
	// Workers sizes the shared simulation pool; default GOMAXPROCS. Every
	// CPU-bound stage — batched or not — runs on this one pool, so
	// concurrent requests cannot oversubscribe the cores.
	Workers int
	// BatchMax closes an iBoxML micro-batch early once this many requests
	// joined it; default 16. Otherwise a batch is whatever queued before a
	// pool worker picked it up (see batcher).
	BatchMax int
	// StreamChunk is the emission granularity of streaming replay
	// (/v1/replay), in closed-loop windows per chunk; default 64.
	StreamChunk int
	// MaxConcurrent bounds simultaneously-executing simulate requests;
	// default 2×Workers.
	MaxConcurrent int
	// MaxQueue bounds simulate requests waiting for an execution slot;
	// beyond it requests are shed with 429 + Retry-After. Default 64.
	MaxQueue int
	// MaxBodyBytes bounds a request body; default 8 MiB.
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline when the request doesn't
	// set timeout_ms, counted from arrival, and the longest a request
	// waits for an admission slot; default 30s.
	DefaultTimeout time.Duration
	// Debug mounts /debug/vars and /debug/pprof on the server mux.
	Debug bool
	// TraceSample records an obs span lane (request → queue → load →
	// simulate) for roughly this fraction of requests, exportable as
	// Chrome trace JSON. 0 disables sampling; sampling is deterministic
	// (every round(1/TraceSample)-th request), not random.
	TraceSample float64
	// DriftEvery re-scores every Nth eligible iBoxML replay request
	// (one whose input carries observed delays) into the model's drift
	// sketch. 0 selects the default 8; negative disables drift
	// detection. See drift.go.
	DriftEvery int
	// DriftPolicy tolerances judge streaming sketches against the
	// artifact's embedded calibration baseline; zero fields select
	// obs.DriftPolicy defaults.
	DriftPolicy obs.DriftPolicy
	// Quarantine returns 503 for models whose drift verdict is failing
	// (healthy models keep serving). Off by default: drift then only
	// degrades /healthz, /statusz and the serve.drift.* metrics.
	Quarantine bool
	// SLOLatency is the latency bound of the "latency_p99" SLO
	// objective; default 1s.
	SLOLatency time.Duration
	// SLOLatencyTarget is the fraction of requests that must finish
	// under SLOLatency; default 0.99.
	SLOLatencyTarget float64
	// SLOErrorTarget is the fraction of requests that must not error;
	// default 0.99.
	SLOErrorTarget float64
	// MaxSessions caps live emulation sessions across all tenants;
	// default 256 (see sessions.go and internal/session).
	MaxSessions int
	// MaxSessionsPerTenant caps live sessions per tenant; default
	// MaxSessions.
	MaxSessionsPerTenant int
	// SessionTTL is the idle deadline for unwatched sessions (no
	// subscribers, no control-plane interaction); 0 selects 15 minutes,
	// negative disables reaping.
	SessionTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxModels <= 0 {
		c.MaxModels = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.StreamChunk <= 0 {
		c.StreamChunk = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = time.Second
	}
	if c.SLOLatencyTarget <= 0 || c.SLOLatencyTarget >= 1 {
		c.SLOLatencyTarget = 0.99
	}
	if c.SLOErrorTarget <= 0 || c.SLOErrorTarget >= 1 {
		c.SLOErrorTarget = 0.99
	}
	return c
}

// SimulateRequest is the body of POST /v1/simulate.
//
// For an iBoxNet model, set protocol (and optionally duration_s, variant)
// to run a congestion-control sender over the learnt path. For an iBoxML
// model, set input to the send-side trace to replay; hierarchical selects
// the amortized §4.2 predictor instead of the windowed closed-loop one.
type SimulateRequest struct {
	Model string `json:"model"`
	Seed  int64  `json:"seed"`

	Protocol  string  `json:"protocol,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	Variant   string  `json:"variant,omitempty"`

	Input        *trace.Trace `json:"input,omitempty"`
	Hierarchical bool         `json:"hierarchical,omitempty"`

	// TimeoutMs overrides the server's default per-request deadline.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate. Its
// JSON encoding is byte-identical to encoding the offline simulation
// result the same way — serving adds no fields that depend on timing,
// batching, or concurrency (such diagnostics travel in headers).
type SimulateResponse struct {
	Model   string       `json:"model"`
	Kind    Kind         `json:"kind"`
	Metrics core.Metrics `json:"metrics"`
	Trace   *trace.Trace `json:"trace"`
}

// errorResponse is the body of any non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// batchSizeHeader reports how many requests shared the micro-batch that
// produced this response (absent for non-batched paths).
const batchSizeHeader = "X-Ibox-Batch-Size"

// Server is the ibox-serve HTTP service.
type Server struct {
	cfg      Config
	registry *Registry
	pool     *par.Pool
	batch    *batcher
	mux      *http.ServeMux
	http     *http.Server

	sem      chan struct{}
	waiting  atomic.Int64
	draining atomic.Bool
	started  time.Time

	queueGauge    *obs.Gauge
	inflightGauge *obs.Gauge
	shed          *obs.Counter
	requests      *obs.Counter
	errors        *obs.Counter
	simulateHist  *obs.Histogram
	modelsHist    *obs.Histogram

	// Labeled families and flat aggregates recorded by the instrument
	// middleware (access.go); nil when observability is disabled.
	httpRequests   *obs.CounterVec   // {route, status class}
	requestLatency *obs.HistogramVec // {route, model, status class, batched}
	shedByReason   *obs.CounterVec   // {reason}
	httpLatency    *obs.Histogram    // all instrumented routes
	queueWait      *obs.Histogram    // time waiting for an execution slot

	// Request IDs and deterministic trace sampling (access.go).
	idPrefix    string
	reqSeq      atomic.Uint64
	sampleEvery uint64

	// Rolling-window collector (statusz.go) and SLO engine.
	roller   *obs.Roller
	win      winGauges
	slo      *obs.SLOEngine
	rollStop chan struct{}
	rollDone chan struct{}
	rollOnce sync.Once

	// Online drift detection (drift.go).
	driftMu     sync.Mutex
	drifts      map[string]*modelDrift
	driftPolicy obs.DriftPolicy
	driftEvery  uint64 // 0 = disabled

	driftState   *obs.GaugeVec   // serve.drift.state{model}
	driftNLL     *obs.GaugeVec   // serve.drift.nll{model}
	driftPITDev  *obs.GaugeVec   // serve.drift.pit_deviation{model}
	driftWindows *obs.GaugeVec   // serve.drift.windows{model}
	driftScored  *obs.Counter    // serve.drift.scored
	quarantined  *obs.CounterVec // serve.drift.quarantined{model}

	// Live emulation sessions (sessions.go, internal/session).
	sessions         *session.Manager
	sessDriftMu      sync.Mutex
	sessDrifts       map[string]*obs.DriftSketch // display-only live drift
	sessDriftNLL     *obs.GaugeVec               // serve.session.drift.nll{model}
	sessDriftPITDev  *obs.GaugeVec               // serve.session.drift.pit_deviation{model}
	sessDriftSamples *obs.GaugeVec               // serve.session.drift.samples{model}
}

// NewServer builds a server over cfg.ModelDir. The directory must exist.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ModelDir == "" {
		return nil, fmt.Errorf("serve: Config.ModelDir is required")
	}
	if fi, err := os.Stat(cfg.ModelDir); err != nil {
		return nil, fmt.Errorf("serve: model dir: %w", err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("serve: model dir %s is not a directory", cfg.ModelDir)
	}
	pool := par.NewPool(cfg.Workers)
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.ModelDir, cfg.MaxModels),
		pool:     pool,
		batch:    newBatcher(pool, cfg.BatchMax, cfg.StreamChunk),
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		idPrefix: newIDPrefix(),
		started:  time.Now(),
	}
	if cfg.TraceSample > 0 {
		every := int(math.Round(1 / math.Min(cfg.TraceSample, 1)))
		if every < 1 {
			every = 1
		}
		s.sampleEvery = uint64(every)
	}
	if r := obs.Get(); r != nil {
		s.queueGauge = r.Gauge("serve.queue_depth")
		s.inflightGauge = r.Gauge("serve.inflight")
		s.shed = r.Counter("serve.shed")
		s.requests = r.Counter("serve.requests")
		s.errors = r.Counter("serve.errors")
		s.simulateHist = r.Histogram("serve.simulate_ns")
		s.modelsHist = r.Histogram("serve.models_ns")
		s.httpRequests = r.CounterVec("serve.http_requests", "route", "status")
		s.requestLatency = r.HistogramVec("serve.request_ns", "route", "model", "status", "batched")
		s.shedByReason = r.CounterVec("serve.shed_reason", "reason")
		s.httpLatency = r.Histogram("serve.http_request_ns")
		s.queueWait = r.Histogram("serve.queue_wait_ns")
		s.driftState = r.GaugeVec("serve.drift.state", "model")
		s.driftNLL = r.GaugeVec("serve.drift.nll", "model")
		s.driftPITDev = r.GaugeVec("serve.drift.pit_deviation", "model")
		s.driftWindows = r.GaugeVec("serve.drift.windows", "model")
		s.driftScored = r.Counter("serve.drift.scored")
		s.quarantined = r.CounterVec("serve.drift.quarantined", "model")
	}
	s.driftInit()
	s.sessionsInit()
	s.startRolling()
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.admit(s.handleSimulate)))
	s.mux.HandleFunc("POST /v1/replay", s.instrument("replay", s.admit(s.handleReplay)))
	s.mux.HandleFunc("GET /v1/models", s.instrument("models", s.handleModels))
	s.mux.Handle("GET /metrics", obs.PrometheusHandler())
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Debug {
		s.mux.Handle("/debug/", DebugMux())
	}
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler exposes the server's routes (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model cache (for warming at startup).
func (s *Server) Registry() *Registry { return s.registry }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.http.Addr = addr
	return s.http.ListenAndServe()
}

// Shutdown drains the server gracefully: readiness flips to 503 so load
// balancers stop sending traffic, new simulate requests are refused,
// live sessions are closed with reason "drain", in-flight requests run
// to completion (bounded by ctx), then the shared pool stops. Safe to
// call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Sessions drain before the pool closes so their final ticks still
	// run on it (they fall back to inline stepping regardless).
	s.sessions.Shutdown()
	s.stopRolling()
	err := s.http.Shutdown(ctx)
	s.pool.Close()
	return err
}

// admit wraps a trace route with the front-door admission control:
// requests beyond MaxConcurrent wait for a slot, requests beyond MaxQueue
// waiting are shed immediately with 429 + Retry-After, and a request
// still queued when its client leaves or the server's DefaultTimeout
// since its arrival passes is released with 503 without ever running.
// (A body's timeout_ms cannot bound the wait: the body is read only once
// admitted.) Draining servers refuse new work outright. The handler gets
// the arrival time, from which its own deadline counts (deadline).
func (s *Server) admit(h func(http.ResponseWriter, *http.Request, time.Time)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		arrived := time.Now()
		m := metaFrom(r.Context())
		if s.draining.Load() {
			m.setShed("draining")
			s.shedByReason.With("draining").Add(1)
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining"))
			return
		}
		if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			s.shed.Add(1)
			m.setShed("queue_full")
			s.shedByReason.With("queue_full").Add(1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("serve: queue full (%d waiting)", s.cfg.MaxQueue))
			return
		}
		s.queueGauge.Set(float64(s.waiting.Load()))
		qctx, cancel := context.WithDeadline(r.Context(), arrived.Add(s.cfg.DefaultTimeout))
		qsp := m.childSpan("queue")
		admitted := false
		select {
		case s.sem <- struct{}{}:
			admitted = true
		case <-qctx.Done():
		}
		cancel()
		qsp.End()
		s.waiting.Add(-1)
		s.queueGauge.Set(float64(s.waiting.Load()))
		if !admitted {
			s.shed.Add(1)
			m.setShed("queue_deadline")
			s.shedByReason.With("queue_deadline").Add(1)
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: deadline expired while queued"))
			return
		}
		if m.isTimed() {
			wait := time.Since(arrived)
			m.setQueueWait(wait)
			s.queueWait.Observe(int64(wait))
		}
		s.inflightGauge.Add(1)
		defer func() {
			s.inflightGauge.Add(-1)
			<-s.sem
		}()
		if s.simulateHist != nil {
			defer s.simulateHist.ObserveSince(time.Now())
		}
		s.requests.Add(1)
		h(w, r, arrived)
	}
}

// deadline bounds a trace request by its deadline — timeout_ms, else
// DefaultTimeout — counted from its arrival at admit, so the time it
// queued for a slot counts against it.
func (s *Server) deadline(r *http.Request, arrived time.Time, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithDeadline(r.Context(), arrived.Add(timeout))
}

// lookup is the model prologue of every route that names a model: the
// trace routes and the session create and checkpoint-swap routes. It
// loads id through the registry, mapping a failure to 404 (no such
// artifact), 400 (malformed id) or 422 (unloadable artifact); labels the
// request with the loaded model; runs check, the route's own validation
// of the request against the model, whose error is a 400; and refuses a
// quarantined model with 503. On failure it has written the error
// response and returns false.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, id string, check func(*Model) error) (*Model, bool) {
	m := metaFrom(r.Context())
	lsp := m.childSpan("load")
	model, err := s.registry.Get(id)
	lsp.End()
	if err != nil {
		code := http.StatusUnprocessableEntity // corrupt / unloadable model
		switch {
		case os.IsNotExist(err):
			code = http.StatusNotFound
		case errors.Is(err, ErrInvalidModelID):
			code = http.StatusBadRequest
		}
		s.writeError(w, code, err)
		return nil, false
	}
	// The model label is set only from a successfully-loaded artifact, so
	// a hostile stream of bogus ids cannot mint label values (the series
	// cap in obs is the backstop for large-but-legitimate model dirs).
	m.setModel(model.ID)
	if err := check(model); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	// Quarantine: a model judged drift-failing stops serving while the
	// rest keep going. Opt-in — see Config.Quarantine and drift.go.
	if s.cfg.Quarantine && s.driftVerdict(model.ID) == obs.DriftFailing {
		s.quarantined.With(model.ID).Add(1)
		m.setShed("quarantine")
		s.shedByReason.With("quarantine").Add(1)
		s.writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: model %s quarantined: drift verdict failing", model.ID))
		return nil, false
	}
	return model, true
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if s.modelsHist != nil {
		defer s.modelsHist.ObserveSince(time.Now())
	}
	infos, err := s.registry.List()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Models []ModelInfo `json:"models"`
	}{Models: infos})
}

// parseVariant maps a request's variant string to the iBoxNet variant.
func parseVariant(s string) (iboxnet.Variant, error) {
	switch s {
	case "", "full", "iboxnet":
		return iboxnet.Full, nil
	case "noct", "iboxnet-noct":
		return iboxnet.NoCT, nil
	case "statloss", "iboxnet-statloss":
		return iboxnet.StatLoss, nil
	case "adaptive", "iboxnet-adaptive":
		return iboxnet.Adaptive, nil
	}
	return 0, fmt.Errorf("serve: unknown variant %q", s)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request, arrived time.Time) {
	req, ok := decodeBody(s, w, r, decodeSimulateRequest)
	if !ok {
		return
	}
	model, ok := s.lookup(w, r, req.Model, func(m *Model) error { return checkSimulate(m, &req) })
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r, arrived, req.TimeoutMs)
	defer cancel()

	var res batchResult
	ssp := metaFrom(ctx).childSpan("simulate")
	switch {
	case model.Kind == KindIBoxNet:
		res.out, res.err = s.simulateNet(ctx, model, &req)
	case req.Hierarchical:
		// The amortized §4.2 predictor prices packets one by one, not in
		// lockstep windows, so it is one pool job rather than a lane.
		res.err = s.pool.Do(ctx, func() error {
			res.out = model.ML.SimulateTraceHierarchical(req.Input, req.Seed)
			return nil
		})
	default:
		res = s.replay(ctx, model, req.Input, req.Seed, nil)
	}
	ssp.End()
	if err := res.err; err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: request deadline exceeded"))
		case errors.Is(err, par.ErrPoolClosed):
			s.writeError(w, http.StatusServiceUnavailable, err)
		default:
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if model.Kind == KindIBoxML {
		// The replay input carries the observed delays the model should
		// reproduce — score a sampled fraction into the drift sketch.
		s.maybeScoreDrift(ctx, model, req.Input)
	}

	w.Header().Set("Content-Type", "application/json")
	if res.size > 0 {
		w.Header().Set(batchSizeHeader, strconv.Itoa(res.size))
	}
	// Nothing in a response can fail to encode, and a failed write means
	// the client is gone: there is nothing left to report.
	e := wire.NewStream(w)
	appendSimulateResponse(e, &SimulateResponse{
		Model:   model.ID,
		Kind:    model.Kind,
		Metrics: core.MetricsOf(res.out),
		Trace:   res.out,
	})
	e.Raw("\n") // as json.Encoder ends every value
	e.Flush()
}

// errBadRequest marks request-validation failures.
var errBadRequest = errors.New("serve: bad request")

// badRequest marks err, if any, as a request-validation failure.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", errBadRequest, err)
}

// checkSimulate validates a /v1/simulate request against its model's
// kind: an iBoxNet model runs a known protocol (and variant), an iBoxML
// model replays an input trace.
func checkSimulate(model *Model, req *SimulateRequest) error {
	if model.Kind == KindIBoxML {
		if req.Protocol != "" {
			return fmt.Errorf("%w: iboxml model %s takes \"input\", not \"protocol\"", errBadRequest, model.ID)
		}
		return checkInput(model, req.Input)
	}
	if req.Protocol == "" {
		return fmt.Errorf("%w: iboxnet model %s requires \"protocol\"", errBadRequest, model.ID)
	}
	if req.Input != nil {
		return fmt.Errorf("%w: iboxnet model %s takes \"protocol\", not \"input\"", errBadRequest, model.ID)
	}
	if _, err := cc.NewSender(req.Protocol, 1500); err != nil {
		return badRequest(err)
	}
	_, err := parseVariant(req.Variant)
	return badRequest(err)
}

// checkInput validates the input trace of an iBoxML replay.
func checkInput(model *Model, in *trace.Trace) error {
	if in == nil || len(in.Packets) == 0 {
		return fmt.Errorf("%w: iboxml model %s requires a non-empty \"input\" trace", errBadRequest, model.ID)
	}
	return badRequest(in.Validate())
}

// simulateNet runs a congestion-control protocol over an iBoxNet model —
// exactly core.Model.Run, on the shared pool. checkSimulate has vetted
// the request.
func (s *Server) simulateNet(ctx context.Context, model *Model, req *SimulateRequest) (*trace.Trace, error) {
	variant, _ := parseVariant(req.Variant)
	dur := 10 * sim.Second
	if req.DurationS > 0 {
		dur = sim.Time(req.DurationS * float64(sim.Second))
	}
	cm := &core.Model{Params: model.Net, Variant: variant, TrainTrace: model.ID}
	var out *trace.Trace
	err := s.pool.Do(ctx, func() error {
		var rerr error
		out, rerr = cm.Run(req.Protocol, dur, req.Seed)
		return rerr
	})
	return out, err
}

// replay runs one iBoxML replay as a lane of the micro-batcher and waits
// for it: the one path of every lockstep replay, unary or streamed. emit,
// non-nil for a streamed replay, gets the lane's window chunks as they
// are computed and reports false once its client is gone. Whatever ends
// the wait — the result, a failed emit, or ctx — closes the lane, so a
// replay whose request is gone stops at its next chunk boundary or, if
// its batch has not started yet, never starts.
func (s *Server) replay(ctx context.Context, model *Model, in *trace.Trace, seed int64, emit func([]streamChunk) bool) batchResult {
	l := s.batch.enqueue(ctx, model.ID, model.ML, in, seed, emit != nil)
	defer l.close()
	if err := ctx.Err(); err != nil {
		// Admitted after its deadline. On a free worker the lane could
		// finish before the wait below, which would then pick the result
		// or ctx at random; closed now, it is dropped at pickup like any
		// lane whose request left while it queued.
		return batchResult{err: err}
	}
	for {
		select {
		case <-l.notify: // never ready for a unary lane
			if !emit(l.drain()) {
				return batchResult{err: errLaneClosed}
			}
		case r := <-l.res:
			if emit != nil && !emit(l.drain()) {
				return batchResult{err: errLaneClosed}
			}
			metaFrom(ctx).setBatch(r.size)
			return r
		case <-ctx.Done():
			return batchResult{err: ctx.Err()}
		}
	}
}
