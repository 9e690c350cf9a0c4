package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"ibox/internal/obs"
)

// Rolling-window serving stats and the /statusz page.
//
// The obs registry's counters and histograms are cumulative; a human
// (or a router tier choosing the least-loaded worker) wants "requests
// per second over the last 10 s" and "p99 right now". A background
// collector ticks an obs.Roller once per second, snapshotting the flat
// request-latency histogram plus the shed and error counters, and
// republishes the windowed views as gauges under the serve.win.* prefix
// so they flow through /metrics and expvar like everything else. The
// serve.win.* family is machine-dependent by construction (it measures
// the recent past of this process), so nothing should compare it across
// runs.
//
// The collector goroutine stops during Shutdown before the listener
// closes; tests run under leakcheck, so a leaked ticker fails the
// package.

// rollWindows are the windows /statusz renders and the gauges export.
var rollWindows = []time.Duration{time.Second, 10 * time.Second, 60 * time.Second}

// winGauges are the republished rolling views (nil when obs disabled).
type winGauges struct {
	reqRate [3]*obs.Gauge // per rollWindows entry
	p50     *obs.Gauge    // 10 s window
	p99     *obs.Gauge    // 10 s window
	shed    *obs.Gauge    // 10 s window rate
	errs    *obs.Gauge    // 10 s window rate
}

// startRolling wires the roller and starts the 1 s collector goroutine.
// No-op when observability is disabled.
func (s *Server) startRolling() {
	r := obs.Get()
	if r == nil {
		return
	}
	s.roller = obs.NewRoller(time.Second, 60)
	s.roller.TrackHistogram("request_ns", s.httpLatency)
	s.roller.TrackCounter("shed", s.shed)
	s.roller.TrackCounter("errors", s.errors)
	for i, w := range rollWindows {
		s.win.reqRate[i] = r.Gauge("serve.win.req_rate_" + obs.WindowLabel(w))
	}
	s.win.p50 = r.Gauge("serve.win.p50_ns_10s")
	s.win.p99 = r.Gauge("serve.win.p99_ns_10s")
	s.win.shed = r.Gauge("serve.win.shed_rate_10s")
	s.win.errs = r.Gauge("serve.win.err_rate_10s")

	// SLO burn-rate engine over the same roller: p99 latency, error
	// ratio, and the worst model-drift verdict as a level objective.
	// Evaluated on every tick; /healthz degrades from its worst state.
	s.slo = obs.NewSLOEngine(s.roller, 10*time.Second, 60*time.Second)
	s.slo.Add(obs.SLOObjective{
		Name: "latency_p99", Hist: "request_ns",
		LatencyThreshold: s.cfg.SLOLatency, Target: s.cfg.SLOLatencyTarget,
	})
	s.slo.Add(obs.SLOObjective{
		Name: "error_ratio", BadCounter: "errors", TotalSource: "request_ns",
		Target: s.cfg.SLOErrorTarget,
	})
	s.slo.Add(obs.SLOObjective{
		Name:   "drift",
		Gauge:  func() float64 { return float64(s.worstDrift()) },
		WarnAt: float64(obs.DriftWarn), FailAt: float64(obs.DriftFailing),
	})

	s.rollStop = make(chan struct{})
	s.rollDone = make(chan struct{})
	go func() {
		defer close(s.rollDone)
		t := time.NewTicker(s.roller.Interval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.rollTick()
			case <-s.rollStop:
				return
			}
		}
	}()
}

// rollTick advances the roller and republishes the windowed gauges.
// Exercised directly by tests (the 1 s ticker is too slow for them).
func (s *Server) rollTick() {
	s.roller.Tick()
	for i, w := range rollWindows {
		s.win.reqRate[i].Set(s.roller.Rate("request_ns", w))
	}
	s.win.p50.Set(s.roller.Quantile("request_ns", 10*time.Second, 0.50))
	s.win.p99.Set(s.roller.Quantile("request_ns", 10*time.Second, 0.99))
	s.win.shed.Set(s.roller.Rate("shed", 10*time.Second))
	s.win.errs.Set(s.roller.Rate("errors", 10*time.Second))
	s.publishDrift()
	s.sessions.PublishStats()
	s.publishSessionDrift()
	s.slo.Eval()
}

// stopRolling stops the collector; safe to call multiple times (tests
// call Shutdown both explicitly and from Cleanup).
func (s *Server) stopRolling() {
	if s.rollStop == nil {
		return
	}
	s.rollOnce.Do(func() {
		close(s.rollStop)
		<-s.rollDone
	})
}

// LoadStats is the compact load signal a router tier reads per worker
// (also served as /statusz?format=json).
type LoadStats struct {
	Inflight     int     `json:"inflight"`
	QueueDepth   int     `json:"queue_depth"`
	ModelsLoaded int     `json:"models_loaded"`
	Draining     bool    `json:"draining"`
	UptimeS      float64 `json:"uptime_s"`
	Rate1s       float64 `json:"rate_1s"`
	Rate10s      float64 `json:"rate_10s"`
	P50Ms10s     float64 `json:"p50_ms_10s"`
	P99Ms10s     float64 `json:"p99_ms_10s"`
	ShedRate10s  float64 `json:"shed_rate_10s"`
	ErrRate10s   float64 `json:"err_rate_10s"`
	// Health is the judged health ("ok"/"warn"/"failing") and
	// ModelsDrifted the count of models at warn or worse — a router
	// steers traffic away from drifted backends on these.
	Health        string `json:"health"`
	ModelsDrifted int    `json:"models_drifted"`
	// SessionsActive counts live emulation sessions — long-lived load
	// the one-shot request stats don't see.
	SessionsActive int `json:"sessions_active"`
}

// LoadStats snapshots the server's current load signal.
func (s *Server) LoadStats() LoadStats {
	ls := LoadStats{
		Inflight:     len(s.sem),
		QueueDepth:   int(s.waiting.Load()),
		ModelsLoaded: s.registry.Loaded(),
		Draining:     s.draining.Load(),
		UptimeS:      time.Since(s.started).Seconds(),
	}
	if s.roller != nil {
		ls.Rate1s = s.roller.Rate("request_ns", time.Second)
		ls.Rate10s = s.roller.Rate("request_ns", 10*time.Second)
		ls.P50Ms10s = s.roller.Quantile("request_ns", 10*time.Second, 0.50) / 1e6
		ls.P99Ms10s = s.roller.Quantile("request_ns", 10*time.Second, 0.99) / 1e6
		ls.ShedRate10s = s.roller.Rate("shed", 10*time.Second)
		ls.ErrRate10s = s.roller.Rate("errors", 10*time.Second)
	}
	ls.Health = s.Health().String()
	ls.ModelsDrifted = s.driftedModels()
	ls.SessionsActive = s.sessions.Active()
	return ls
}

// handleStatusz renders the human load page (text) or the router-tier
// load signal (?format=json).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	ls := s.LoadStats()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ls)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "ibox-serve statusz\n")
	fmt.Fprintf(&b, "uptime: %.1fs  draining: %v  health: %s\n", ls.UptimeS, ls.Draining, ls.Health)
	fmt.Fprintf(&b, "inflight: %d/%d  queued: %d/%d  models loaded: %d  drifted: %d\n\n",
		ls.Inflight, s.cfg.MaxConcurrent, ls.QueueDepth, s.cfg.MaxQueue, ls.ModelsLoaded, ls.ModelsDrifted)

	if s.roller != nil {
		fmt.Fprintf(&b, "%-8s %12s %10s %12s %12s\n", "window", "req/s", "count", "p50", "p99")
		for _, st := range s.roller.Stats("request_ns") {
			fmt.Fprintf(&b, "%-8s %12.2f %10d %12s %12s\n",
				obs.WindowLabel(st.Window), st.Rate, st.Count,
				time.Duration(st.P50).Round(time.Microsecond),
				time.Duration(st.P99).Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "\nshed: %.2f/s (10s)  errors: %.2f/s (10s)\n", ls.ShedRate10s, ls.ErrRate10s)
	}

	if sts := s.slo.Statuses(); len(sts) > 0 {
		fmt.Fprintf(&b, "\nslo objectives:\n")
		fmt.Fprintf(&b, "  %-14s %-8s %10s %10s %10s\n", "objective", "state", "burn10s", "burn60s", "value")
		for _, st := range sts {
			fmt.Fprintf(&b, "  %-14s %-8s %10.2f %10.2f %10.4f\n",
				st.Name, st.State, st.BurnShort, st.BurnLong, st.Value)
		}
	}

	if ds := s.DriftStatuses(); len(ds) > 0 {
		fmt.Fprintf(&b, "\nmodel drift:\n")
		fmt.Fprintf(&b, "  %-24s %-8s %8s %10s %10s\n", "model", "verdict", "windows", "nll", "pit_dev")
		for _, d := range ds {
			fmt.Fprintf(&b, "  %-24s %-8s %8d %10.4f %10.4f\n",
				d.Model, d.Verdict, d.Windows, d.NLL, d.PITDeviation)
		}
	}

	lim := s.sessions.Limits()
	fmt.Fprintf(&b, "\nsessions: %d active (max %d, per-tenant %d, idle ttl %s)\n",
		ls.SessionsActive, lim.MaxSessions, lim.MaxPerTenant, lim.TTL)
	if infos := s.sessions.List(); len(infos) > 0 {
		fmt.Fprintf(&b, "  %-12s %-10s %-16s %-8s %-8s %8s %8s %5s %8s\n",
			"id", "tenant", "model", "proto", "state", "vt_s", "events", "subs", "idle_s")
		for _, in := range infos {
			fmt.Fprintf(&b, "  %-12s %-10s %-16s %-8s %-8s %8.1f %8d %5d %8.1f\n",
				in.ID, in.Tenant, in.Checkpoint, in.Protocol, in.State,
				in.VTSeconds, in.Events, in.Subscribers, in.IdleS)
		}
	}
	if sds := s.SessionDriftStatuses(); len(sds) > 0 {
		fmt.Fprintf(&b, "\nlive-session drift (display-only):\n")
		fmt.Fprintf(&b, "  %-24s %10s %10s %10s\n", "model", "samples", "nll", "pit_dev")
		for _, d := range sds {
			fmt.Fprintf(&b, "  %-24s %10d %10.4f %10.4f\n",
				d.Model, d.Samples, d.NLL, d.PITDeviation)
		}
	}

	if reg := obs.Get(); reg != nil {
		snap := reg.Snapshot()
		var names []string
		for name := range snap.Counters {
			if strings.HasPrefix(name, "serve.") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(&b, "\ncumulative counters:\n")
			for _, name := range names {
				fmt.Fprintf(&b, "  %-60s %d\n", name, snap.Counters[name])
			}
		}
	}
	w.Write([]byte(b.String()))
}
