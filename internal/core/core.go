// Package core is the top-level iBox API: it ties the learnt network
// models (internal/iboxnet, internal/iboxml) to the congestion-control
// suite (internal/cc) and exposes the paper's two evaluation procedures
// (§2) — the instance test (counterfactual: what would protocol B have
// seen on this particular path at this particular time?) and the ensemble
// test (recreating flighting-based A/B tests inside the simulator).
package core

import (
	"fmt"
	"time"

	"ibox/internal/cc"
	"ibox/internal/iboxnet"
	"ibox/internal/obs"
	"ibox/internal/pantheon"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/stats"
	"ibox/internal/trace"
)

// Metrics are the per-flow summary statistics of Fig 2: throughput, tail
// delay and loss.
type Metrics struct {
	ThroughputMbps float64
	P95DelayMs     float64
	LossPct        float64
}

// MetricsOf summarizes one trace.
func MetricsOf(tr *trace.Trace) Metrics {
	return Metrics{
		ThroughputMbps: tr.Throughput() / 1e6,
		P95DelayMs:     tr.DelayPercentile(95),
		LossPct:        tr.LossRate() * 100,
	}
}

// Model is a fitted iBoxNet model ready to simulate counterfactuals.
type Model struct {
	Params  iboxnet.Params
	Variant iboxnet.Variant
	// TrainTrace identifies the trace the model was learnt from.
	TrainTrace string
}

// Fit learns an iBoxNet model from a single input–output trace (the
// per-instance learning of §3.1: "the parameters are estimated based on a
// particular trace of A").
func Fit(tr *trace.Trace, variant iboxnet.Variant) (*Model, error) {
	p, err := iboxnet.Estimate(tr, iboxnet.EstimatorConfig{})
	if err != nil {
		return nil, err
	}
	return &Model{Params: p, Variant: variant, TrainTrace: tr.PathID}, nil
}

// Run simulates the named protocol over the learnt model for the given
// duration. Distinct seeds give independent emulator runs.
func (m *Model) Run(protocol string, dur sim.Time, seed int64) (*trace.Trace, error) {
	sender, err := cc.NewSender(protocol, 1500)
	if err != nil {
		return nil, err
	}
	return m.RunSender(sender, dur, seed)
}

// RunSender is Run with a caller-constructed sender.
func (m *Model) RunSender(sender cc.Sender, dur sim.Time, seed int64) (*trace.Trace, error) {
	flow, err := m.run(sender, dur, seed, false)
	if err != nil {
		return nil, err
	}
	tr := flow.Trace()
	tr.PathID = m.pathID()
	return tr, nil
}

// LendRun is Run for a caller that only reduces the trace to numbers: it
// lends the trace to use instead of returning it. The flow records into
// a packet array borrowed from the trace package (trace.Borrow), given
// back when use returns, so the run allocates no trace of its own. use
// must keep neither the trace nor its packets.
func (m *Model) LendRun(protocol string, dur sim.Time, seed int64, use func(*trace.Trace)) error {
	sender, err := cc.NewSender(protocol, 1500)
	if err != nil {
		return err
	}
	flow, err := m.run(sender, dur, seed, true)
	if err != nil {
		return err
	}
	tr := flow.Trace()
	tr.PathID = m.pathID()
	use(tr)
	trace.Return(tr.Packets)
	return nil
}

// run drives sender over the emulated model until the flow has ended and
// returns the flow. A lent run's flow records into a borrowed packet
// array (see LendRun).
func (m *Model) run(sender cc.Sender, dur sim.Time, seed int64, lent bool) (*cc.Flow, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("core: non-positive duration %v", dur)
	}
	sched := sim.NewScheduler()
	path := m.Params.Emulate(sched, m.Variant, seed)
	flow := cc.NewFlow(sched, path.Port("main"), sender, cc.FlowConfig{
		Duration: dur,
		AckDelay: m.Params.PropDelay,
	})
	if lent {
		flow.RecordInto(trace.Borrow(0))
	}
	flow.Start()
	sched.RunUntil(dur + 3*sim.Second)
	path.Release()
	return flow, nil
}

// pathID names the path of a trace run over the model.
func (m *Model) pathID() string { return m.TrainTrace + "/" + m.Variant.String() }

// EnsembleResult is the outcome of an ensemble A/B test (§3.1.1, Fig 2):
// the distribution of per-flow metrics for the control protocol A and the
// treatment protocol B, on the ground truth and on the learnt models, plus
// two-sample KS tests of each simulated distribution against its ground
// truth.
type EnsembleResult struct {
	Control, Treatment string
	Variant            iboxnet.Variant

	GTControl    []Metrics // A on the real (ground-truth) instances
	SimControl   []Metrics // A on the models learnt from A's traces
	GTTreatment  []Metrics // B on the real instances (only possible in simulation!)
	SimTreatment []Metrics // B on the learnt models — the paper's headline capability

	// KS holds two-sample KS tests comparing simulated vs ground-truth
	// metric distributions; keys are "control/tput", "control/p95",
	// "control/loss", and the same under "treatment/".
	KS map[string]stats.KSResult
}

// EnsembleTest runs the full §3.1.1 procedure over a corpus of control-
// protocol traces: fit one iBoxNet model per training trace, run both the
// control and the (never-seen-in-training) treatment protocol on every
// model, run both protocols on the true instances for reference, and
// compare the metric distributions. Per-trace work fans out over all
// CPUs; see EnsembleTestOpts for the execution knob.
func EnsembleTest(corpus *pantheon.Corpus, treatment string, variant iboxnet.Variant, dur sim.Time, seed int64) (*EnsembleResult, error) {
	return EnsembleTestOpts(corpus, treatment, variant, dur, seed, par.Options{})
}

// EnsembleTestOpts is EnsembleTest with explicit execution options. The
// per-trace fit+replay work is independent across traces — every RNG
// seed is derived from the trace index before dispatch — so serial and
// parallel runs produce byte-identical results.
func EnsembleTestOpts(corpus *pantheon.Corpus, treatment string, variant iboxnet.Variant, dur sim.Time, seed int64, opts par.Options) (*EnsembleResult, error) {
	if len(corpus.Traces) == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	res := &EnsembleResult{
		Control:   corpus.Protocol,
		Treatment: treatment,
		Variant:   variant,
		KS:        map[string]stats.KSResult{},
	}
	// Per-trace fit and replay latencies; nil no-op handles when
	// observability is disabled (hoisted out of the fan-out).
	reg := obs.Get()
	fitHist := reg.Histogram("core.fit_ns")
	replayHist := reg.Histogram("core.replay_ns")
	reg.Counter("core.ensemble_tests").Add(1)
	reg.Counter("core.ensemble_traces").Add(int64(len(corpus.Traces)))
	type perTrace struct {
		gtControl, gtTreatment, simControl, simTreatment Metrics
	}
	rows, err := par.Map(len(corpus.Traces), opts, func(i int) (perTrace, error) {
		tr := corpus.Traces[i]
		inst := corpus.Instances[i]
		var row perTrace
		row.gtControl = MetricsOf(tr)

		var t0 time.Time
		if replayHist != nil {
			t0 = time.Now()
		}
		err := inst.LendRun(treatment, dur, seed+int64(i), func(lent *trace.Trace) { row.gtTreatment = MetricsOf(lent) })
		if err != nil {
			return row, fmt.Errorf("core: GT treatment on %s: %w", inst.ID, err)
		}
		replayHist.ObserveSince(t0)

		if fitHist != nil {
			t0 = time.Now()
		}
		model, err := Fit(tr, variant)
		if err != nil {
			return row, fmt.Errorf("core: fit on %s: %w", inst.ID, err)
		}
		fitHist.ObserveSince(t0)
		if replayHist != nil {
			t0 = time.Now()
		}
		err = model.LendRun(corpus.Protocol, dur, seed+int64(i)*2+1, func(lent *trace.Trace) { row.simControl = MetricsOf(lent) })
		if err != nil {
			return row, err
		}
		err = model.LendRun(treatment, dur, seed+int64(i)*2+2, func(lent *trace.Trace) { row.simTreatment = MetricsOf(lent) })
		if err != nil {
			return row, err
		}
		// One observation covers both model replays (control + treatment).
		replayHist.ObserveSince(t0)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		res.GTControl = append(res.GTControl, row.gtControl)
		res.GTTreatment = append(res.GTTreatment, row.gtTreatment)
		res.SimControl = append(res.SimControl, row.simControl)
		res.SimTreatment = append(res.SimTreatment, row.simTreatment)
	}
	res.computeKS()
	return res, nil
}

func (r *EnsembleResult) computeKS() {
	extract := func(ms []Metrics) (tput, p95, loss []float64) {
		for _, m := range ms {
			tput = append(tput, m.ThroughputMbps)
			p95 = append(p95, m.P95DelayMs)
			loss = append(loss, m.LossPct)
		}
		return
	}
	gct, gcp, gcl := extract(r.GTControl)
	sct, scp, scl := extract(r.SimControl)
	gtt, gtp, gtl := extract(r.GTTreatment)
	stt, stp, stl := extract(r.SimTreatment)
	r.KS["control/tput"] = stats.KSTest(gct, sct)
	r.KS["control/p95"] = stats.KSTest(gcp, scp)
	r.KS["control/loss"] = stats.KSTest(gcl, scl)
	r.KS["treatment/tput"] = stats.KSTest(gtt, stt)
	r.KS["treatment/p95"] = stats.KSTest(gtp, stp)
	r.KS["treatment/loss"] = stats.KSTest(gtl, stl)
}

// MeanAbsError reports the mean absolute difference between simulated and
// ground-truth metrics for the treatment protocol — a scalar quality score
// used by the ablation comparisons of Fig 3.
func (r *EnsembleResult) MeanAbsError() (tput, p95, loss float64) {
	n := len(r.GTTreatment)
	if n == 0 || len(r.SimTreatment) != n {
		return 0, 0, 0
	}
	for i := range r.GTTreatment {
		tput += abs(r.GTTreatment[i].ThroughputMbps - r.SimTreatment[i].ThroughputMbps)
		p95 += abs(r.GTTreatment[i].P95DelayMs - r.SimTreatment[i].P95DelayMs)
		loss += abs(r.GTTreatment[i].LossPct - r.SimTreatment[i].LossPct)
	}
	return tput / float64(n), p95 / float64(n), loss / float64(n)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RunFeatures extracts the instance-test clustering features of §3.1.2:
// the cross-correlations of a run's rate and delay time series against a
// set of reference runs (one per cross-traffic pattern). The resulting
// vector has 2·len(refs) entries: [xcorr(rate, refRate_k),
// xcorr(delay, refDelay_k)]_k.
func RunFeatures(run *trace.Trace, refs []*trace.Trace, step sim.Time) []float64 {
	rRate := run.RecvRateSeries(step).Vals
	rDelay := run.DelaySeries(step).Vals
	var out []float64
	for _, ref := range refs {
		out = append(out, stats.CrossCorrelation(rRate, ref.RecvRateSeries(step).Vals))
		out = append(out, stats.CrossCorrelation(rDelay, ref.DelaySeries(step).Vals))
	}
	return out
}
