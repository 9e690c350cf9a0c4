package serve

import (
	"context"
	"sort"
	"sync/atomic"

	"ibox/internal/obs"
	"ibox/internal/trace"
)

// Online drift detection. An iBoxML replay request carries the observed
// delays it asks the model to reproduce — exactly the data
// iboxml.Calibrate scores at training time. A sampled fraction of those
// requests is re-scored open loop against the live model into a
// per-model obs.DriftSketch (streaming PIT histogram + mean NLL, lock-
// free, bounded memory), and the sketch is judged against the
// calibration baseline embedded in the artifact. The verdict — cold /
// ok / warn / failing — flows four ways:
//
//   - serve.drift.* labeled gauges republished by the rolling collector;
//   - /statusz and LoadStats (the router-tier load signal), so a router
//     can steer traffic away from a drifted backend;
//   - the "drift" SLO objective, degrading /healthz ok → warn → failing;
//   - with Config.Quarantine, a 503 for the drifted model while healthy
//     models keep serving.
//
// Scoring runs on the shared pool inside the request's admission slot,
// so it can never oversubscribe the cores; the per-request hit-path cost
// when a request is *not* sampled is one atomic add and a trace scan.
// Verdicts update inline after each scored request (not only on collector
// ticks), so quarantine works even with observability disabled.

// modelDrift is one model's streaming drift state. Sketches live for
// the server's lifetime — LRU eviction of the model does not discard
// its history.
type modelDrift struct {
	sketch  obs.DriftSketch
	base    *obs.DriftBaseline // nil for artifacts without a baseline
	seen    atomic.Uint64      // eligible replay requests (drives sampling)
	verdict atomic.Int32       // obs.DriftVerdict
}

// DriftStatus is one model's drift scorecard as rendered by /statusz,
// /healthz?format=json and the -watch dashboard.
type DriftStatus struct {
	Model        string             `json:"model"`
	Verdict      string             `json:"verdict"`
	Windows      int64              `json:"windows"`
	NLL          float64            `json:"nll"`
	PITDeviation float64            `json:"pit_deviation"`
	Baseline     *obs.DriftBaseline `json:"baseline,omitempty"`
}

// driftFor returns (creating on first use) the drift state for an
// iBoxML model; nil for other kinds or when drift detection is off.
func (s *Server) driftFor(model *Model) *modelDrift {
	if s.driftEvery == 0 || model.Kind != KindIBoxML {
		return nil
	}
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	d, ok := s.drifts[model.ID]
	if !ok {
		d = &modelDrift{}
		if cal := model.ML.Baseline(); cal != nil {
			d.base = &obs.DriftBaseline{NLL: cal.NLL, PITDeviation: cal.PITDeviation}
		}
		s.drifts[model.ID] = d
	}
	return d
}

// traceObserved reports whether a replay input actually carries observed
// delays: at least one delivered packet, every delivered packet with a
// strictly positive delay. Send-only timelines (all zeros or all lost)
// give the scorer nothing to compare against.
func traceObserved(tr *trace.Trace) bool {
	delivered := 0
	for i := range tr.Packets {
		p := &tr.Packets[i]
		if p.Lost {
			continue
		}
		if p.RecvTime <= p.SendTime {
			return false
		}
		delivered++
	}
	return delivered > 0
}

// maybeScoreDrift re-scores every driftEvery-th eligible replay of an
// iBoxML model into its drift sketch and refreshes the verdict. The trace
// routes call it after a successful replay, still inside the request's
// admission slot.
func (s *Server) maybeScoreDrift(ctx context.Context, model *Model, in *trace.Trace) {
	d := s.driftFor(model)
	if d == nil || !traceObserved(in) {
		return
	}
	if d.seen.Add(1)%s.driftEvery != 0 {
		return
	}
	err := s.pool.Do(ctx, func() error {
		model.ML.ScoreWindows(in, nil, func(pit, _, nll float64) {
			d.sketch.Observe(pit, nll)
		})
		return nil
	})
	if err != nil {
		return // deadline expired before the scoring slot; skip quietly
	}
	s.driftScored.Add(1)
	s.refreshVerdict(model.ID, d)
}

// refreshVerdict re-judges a model's sketch and logs transitions.
func (s *Server) refreshVerdict(id string, d *modelDrift) {
	snap := d.sketch.Snapshot()
	v := s.driftPolicy.Judge(snap, d.base)
	old := obs.DriftVerdict(d.verdict.Swap(int32(v)))
	if v == old {
		return
	}
	if l := obs.Logger(); l != nil {
		log := l.Info
		if v == obs.DriftWarn {
			log = l.Warn
		} else if v == obs.DriftFailing {
			log = l.Error
		}
		log("drift verdict",
			"model", id,
			"verdict", v.String(),
			"prev", old.String(),
			"windows", snap.Windows,
			"nll", snap.NLL,
			"pit_deviation", snap.PITDeviation,
		)
	}
}

// driftVerdict returns a model's current verdict (DriftCold when the
// model has no drift state yet).
func (s *Server) driftVerdict(id string) obs.DriftVerdict {
	s.driftMu.Lock()
	d := s.drifts[id]
	s.driftMu.Unlock()
	if d == nil {
		return obs.DriftCold
	}
	return obs.DriftVerdict(d.verdict.Load())
}

// worstDrift returns the worst verdict across all tracked models — the
// level the "drift" SLO objective watches.
func (s *Server) worstDrift() obs.DriftVerdict {
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	worst := obs.DriftCold
	for _, d := range s.drifts {
		if v := obs.DriftVerdict(d.verdict.Load()); v > worst {
			worst = v
		}
	}
	return worst
}

// driftedModels counts models whose verdict is warn or worse (the
// LoadStats signal a router tier reads).
func (s *Server) driftedModels() int {
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	n := 0
	for _, d := range s.drifts {
		if obs.DriftVerdict(d.verdict.Load()) >= obs.DriftWarn {
			n++
		}
	}
	return n
}

// DriftStatuses snapshots every tracked model's drift scorecard, sorted
// by model ID. Empty when drift detection is disabled or no iBoxML
// replay has been served yet.
func (s *Server) DriftStatuses() []DriftStatus {
	s.driftMu.Lock()
	ids := make([]string, 0, len(s.drifts))
	states := make(map[string]*modelDrift, len(s.drifts))
	for id, d := range s.drifts {
		ids = append(ids, id)
		states[id] = d
	}
	s.driftMu.Unlock()
	sort.Strings(ids)
	out := make([]DriftStatus, 0, len(ids))
	for _, id := range ids {
		d := states[id]
		snap := d.sketch.Snapshot()
		out = append(out, DriftStatus{
			Model:        id,
			Verdict:      obs.DriftVerdict(d.verdict.Load()).String(),
			Windows:      snap.Windows,
			NLL:          snap.NLL,
			PITDeviation: snap.PITDeviation,
			Baseline:     d.base,
		})
	}
	return out
}

// publishDrift republishes every model's drift scorecard as
// serve.drift.* gauges; called by the rolling collector each tick.
// No-op when observability is disabled (nil vec handles).
func (s *Server) publishDrift() {
	if s.driftState == nil {
		return
	}
	for _, st := range s.DriftStatuses() {
		s.driftState.With(st.Model).Set(float64(driftVerdictValue(st.Verdict)))
		s.driftNLL.With(st.Model).Set(st.NLL)
		s.driftPITDev.With(st.Model).Set(st.PITDeviation)
		s.driftWindows.With(st.Model).Set(float64(st.Windows))
	}
}

// driftVerdictValue maps a verdict string back to its gauge level.
func driftVerdictValue(v string) obs.DriftVerdict {
	switch v {
	case "ok":
		return obs.DriftOK
	case "warn":
		return obs.DriftWarn
	case "failing":
		return obs.DriftFailing
	default:
		return obs.DriftCold
	}
}

// driftInit sizes the server's drift machinery from its config.
func (s *Server) driftInit() {
	s.drifts = make(map[string]*modelDrift)
	s.driftPolicy = s.cfg.DriftPolicy.WithDefaults()
	switch {
	case s.cfg.DriftEvery < 0:
		s.driftEvery = 0 // disabled
	case s.cfg.DriftEvery == 0:
		s.driftEvery = 8
	default:
		s.driftEvery = uint64(s.cfg.DriftEvery)
	}
}
