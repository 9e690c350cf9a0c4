package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"ibox/internal/cc"
	"ibox/internal/iboxnet"
	"ibox/internal/obs"
	"ibox/internal/session"
	"ibox/internal/sim"
)

// The session control plane: live emulation sessions as HTTP resources.
//
//	POST   /v1/sessions              create from a registry checkpoint
//	GET    /v1/sessions              list live sessions
//	GET    /v1/sessions/{id}         one session's control-plane snapshot
//	DELETE /v1/sessions/{id}         close
//	GET    /v1/sessions/{id}/events  telemetry stream (SSE)
//	POST   /v1/sessions/{id}/path    mutate the live path (tc-style)
//	POST   /v1/sessions/{id}/pause   hold virtual time
//	POST   /v1/sessions/{id}/resume  continue
//	GET    /v1/protocols             cc senders + loaded model kinds
//
// Sessions are long-lived, so they do not pass through the request-path
// admission semaphore (which bounds one-shot simulate work); their
// admission control is the session.Manager's global and per-tenant caps
// plus the idle-TTL reaper. The SSE route additionally bypasses the
// instrument middleware: a stream lasting minutes would be recorded as
// one enormous "request latency" and poison the latency SLO.

// sessionEventsPath returns the SSE stream path for a session id.
func sessionEventsPath(id string) string { return "/v1/sessions/" + id + "/events" }

// tenantHeader attributes a session to a tenant for per-tenant caps.
const tenantHeader = "X-Ibox-Tenant"

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	// Model is the registry checkpoint the session emulates.
	Model string `json:"model"`
	// Protocol is the congestion-control sender, any cc.Protocols() name.
	Protocol string `json:"protocol"`
	// Seed drives all session randomness; same (model, protocol, seed)
	// ⇒ byte-identical telemetry.
	Seed int64 `json:"seed"`
	// Variant selects the iBoxNet emulation variant (parseVariant names).
	Variant string `json:"variant,omitempty"`
	// Speed is the virtual/wall ratio (1 = real time, 10 = 10× fast-
	// forward, negative = unpaced); default 1.
	Speed float64 `json:"speed,omitempty"`
	// DurationS bounds the session's virtual lifetime; default 3600.
	DurationS float64 `json:"duration_s,omitempty"`
	// PacketEvery emits a packet event per Nth ack (default 1; negative
	// disables per-packet telemetry, leaving summaries).
	PacketEvery int `json:"packet_every,omitempty"`
	// SummaryEveryMs is the rollup cadence in virtual ms; default 200, at
	// least 1.
	SummaryEveryMs float64 `json:"summary_every_ms,omitempty"`
}

// SessionResponse is the body of session CRUD responses.
type SessionResponse struct {
	Session session.Info `json:"session"`
	// EventsURL is where to attach for the telemetry stream.
	EventsURL string `json:"events_url,omitempty"`
}

// sessionsInit builds the session manager and mounts the control plane
// on the server mux. Called from NewServer.
func (s *Server) sessionsInit() {
	s.sessions = session.NewManager(session.Limits{
		MaxSessions:  s.cfg.MaxSessions,
		MaxPerTenant: s.cfg.MaxSessionsPerTenant,
		TTL:          s.cfg.SessionTTL,
	}, s.pool)
	s.sessDrifts = make(map[string]*obs.DriftSketch)
	if r := obs.Get(); r != nil {
		s.sessDriftNLL = r.GaugeVec("serve.session.drift.nll", "model")
		s.sessDriftPITDev = r.GaugeVec("serve.session.drift.pit_deviation", "model")
		s.sessDriftSamples = r.GaugeVec("serve.session.drift.samples", "model")
	}
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("sessions_create", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("sessions_list", s.handleSessionList))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("sessions_get", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("sessions_close", s.handleSessionClose))
	s.mux.HandleFunc("POST /v1/sessions/{id}/path", s.instrument("sessions_path", s.handleSessionPath))
	s.mux.HandleFunc("POST /v1/sessions/{id}/pause", s.instrument("sessions_pause", s.handleSessionPause))
	s.mux.HandleFunc("POST /v1/sessions/{id}/resume", s.instrument("sessions_resume", s.handleSessionResume))
	// Not instrumented: see the package comment above.
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/protocols", s.instrument("protocols", s.handleProtocols))
}

// sessionError maps session-layer errors to HTTP statuses.
func (s *Server) sessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound):
		s.writeError(w, http.StatusNotFound, err)
	case errors.Is(err, session.ErrDraining):
		s.writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, session.ErrSessionLimit), errors.Is(err, session.ErrTenantLimit):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, session.ErrClosed):
		s.writeError(w, http.StatusConflict, err)
	default:
		s.writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		return
	}
	var variant iboxnet.Variant
	model, ok := s.lookup(w, r, req.Model, func(*Model) (err error) {
		variant, err = parseVariant(req.Variant)
		return badRequest(err)
	})
	if !ok {
		return
	}
	cfg := session.Config{
		Tenant:      r.Header.Get(tenantHeader),
		Checkpoint:  model.ID,
		Kind:        string(model.Kind),
		Net:         model.Net,
		Variant:     variant,
		ML:          model.ML,
		Protocol:    req.Protocol,
		Seed:        req.Seed,
		Speed:       req.Speed,
		PacketEvery: req.PacketEvery,
	}
	if req.DurationS > 0 {
		cfg.Duration = sim.FromSeconds(req.DurationS)
	}
	if req.SummaryEveryMs > 0 {
		cfg.Summary = sim.Time(req.SummaryEveryMs * float64(sim.Millisecond))
	}
	// The session re-resolves the tap at every path rebuild, so drift
	// stays attributed to whichever model a checkpoint swap installs.
	cfg.Score = s.sessionScore
	sess, err := s.sessions.Create(cfg)
	if err != nil {
		s.sessionError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(SessionResponse{
		Session:   sess.Info(),
		EventsURL: sessionEventsPath(sess.ID()),
	})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Sessions []session.Info `json:"sessions"`
	}{Sessions: s.sessions.List()})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SessionResponse{
		Session:   sess.Info(),
		EventsURL: sessionEventsPath(sess.ID()),
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	if err := sess.Close("client"); err != nil {
		s.sessionError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SessionResponse{Session: sess.Info()})
}

func (s *Server) handleSessionPause(w http.ResponseWriter, r *http.Request) {
	s.sessionLifecycle(w, r, (*session.Session).Pause)
}

func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	s.sessionLifecycle(w, r, (*session.Session).Resume)
}

func (s *Server) sessionLifecycle(w http.ResponseWriter, r *http.Request, op func(*session.Session) error) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	if err := op(sess); err != nil {
		s.sessionError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SessionResponse{Session: sess.Info()})
}

// PathRequest is the body of POST /v1/sessions/{id}/path: the mutation,
// plus the emulation variant a checkpoint swap should instantiate
// (default: the session keeps its current variant semantics — the
// swapped model's default, Full).
type PathRequest struct {
	session.Mutation
	Variant string `json:"variant,omitempty"`
}

func (s *Server) handleSessionPath(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req PathRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		return
	}
	mu := req.Mutation
	if mu.Checkpoint != "" {
		// Resolve the swap target through the registry so a bogus id is a
		// clean 404 and the session only ever sees loadable artifacts.
		var variant iboxnet.Variant
		model, ok := s.lookup(w, r, mu.Checkpoint, func(*Model) (err error) {
			variant, err = parseVariant(req.Variant)
			return badRequest(err)
		})
		if !ok {
			return
		}
		mu.Swap = &session.ModelSwap{
			Checkpoint: model.ID,
			Kind:       string(model.Kind),
			Net:        model.Net,
			Variant:    variant,
			ML:         model.ML,
		}
	}
	if err := sess.Mutate(mu); err != nil {
		s.sessionError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SessionResponse{Session: sess.Info()})
}

// handleSessionEvents streams a session's telemetry as Server-Sent
// Events: one `id:`/`data:` frame per event, the id being the session-
// wide event seq (so `Last-Event-ID` — or `?after=N` — resumes exactly
// where a dropped connection left off, within the replay ring). A gap
// (slow consumer lapped by the ring) is reported as a comment frame.
// The stream ends with `event: end` once the session is terminal and
// fully drained.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusNotImplemented, fmt.Errorf("serve: streaming unsupported"))
		return
	}
	after := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}
	sub := sess.Subscribe(after)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		batch, gap, err := sub.Next(r.Context())
		if err != nil {
			if errors.Is(err, io.EOF) {
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				fl.Flush()
			}
			return // client gone or stream complete
		}
		if gap {
			fmt.Fprint(w, ": gap — events lost to ring overwrite\n\n")
		}
		// Ring entries are contiguous, so the batch's ids count back from
		// the cursor.
		first := sub.Cursor() - int64(len(batch)) + 1
		for i, b := range batch {
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", first+int64(i), b); err != nil {
				return
			}
		}
		fl.Flush()
	}
}

// ProtocolsResponse is the body of GET /v1/protocols: everything a
// client needs to fill a valid session- or simulate-request — the
// congestion-control senders this build offers and the model kinds
// currently warm in the registry.
type ProtocolsResponse struct {
	Protocols []string `json:"protocols"`
	// Kinds counts warm registry models by kind.
	Kinds        map[string]int `json:"kinds"`
	ModelsLoaded int            `json:"models_loaded"`
}

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	resp := ProtocolsResponse{
		Protocols:    cc.Protocols(),
		Kinds:        map[string]int{},
		ModelsLoaded: s.registry.Loaded(),
	}
	if infos, err := s.registry.List(); err == nil {
		for _, in := range infos {
			if in.Loaded {
				resp.Kinds[string(in.Kind)]++
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// Live-session drift. iBoxML sessions score every predicted packet
// delay against the model's own group distribution (PIT + NLL into a
// per-model sketch). Unlike the replay-request drift detector
// (drift.go), the samples here are model-generated, not observed — the
// sketch measures the sampler's self-consistency, so it is a display
// signal on /statusz and the serve.session.drift.* gauges, never an
// input to quarantine or the drift SLO.

// sessionScore is the session.Config.Score factory: it resolves the
// given model id to its live drift sketch and returns the per-packet
// observer. Sessions call it once per path (re)build — so a checkpoint
// swap rebinds scoring to the swapped-in model — and the returned
// observer runs in simulation context; Observe is lock-free.
func (s *Server) sessionScore(modelID string) func(pit, nll float64) {
	s.sessDriftMu.Lock()
	d, ok := s.sessDrifts[modelID]
	if !ok {
		d = &obs.DriftSketch{}
		s.sessDrifts[modelID] = d
	}
	s.sessDriftMu.Unlock()
	return func(pit, nll float64) { d.Observe(pit, nll) }
}

// SessionDriftStatus is one model's live-session drift scorecard.
type SessionDriftStatus struct {
	Model        string  `json:"model"`
	Samples      int64   `json:"samples"`
	NLL          float64 `json:"nll"`
	PITDeviation float64 `json:"pit_deviation"`
}

// SessionDriftStatuses snapshots the live-session drift sketches,
// sorted by model id.
func (s *Server) SessionDriftStatuses() []SessionDriftStatus {
	s.sessDriftMu.Lock()
	ids := make([]string, 0, len(s.sessDrifts))
	sketches := make(map[string]*obs.DriftSketch, len(s.sessDrifts))
	for id, d := range s.sessDrifts {
		ids = append(ids, id)
		sketches[id] = d
	}
	s.sessDriftMu.Unlock()
	sort.Strings(ids)
	out := make([]SessionDriftStatus, 0, len(ids))
	for _, id := range ids {
		snap := sketches[id].Snapshot()
		out = append(out, SessionDriftStatus{
			Model:        id,
			Samples:      snap.Windows,
			NLL:          snap.NLL,
			PITDeviation: snap.PITDeviation,
		})
	}
	return out
}

// publishSessionDrift republishes the live-session sketches as gauges;
// called by the rolling collector each tick.
func (s *Server) publishSessionDrift() {
	if s.sessDriftNLL == nil {
		return
	}
	for _, st := range s.SessionDriftStatuses() {
		s.sessDriftNLL.With(st.Model).Set(st.NLL)
		s.sessDriftPITDev.With(st.Model).Set(st.PITDeviation)
		s.sessDriftSamples.With(st.Model).Set(float64(st.Samples))
	}
}
