package experiments

import (
	"fmt"
	"strings"

	"ibox/internal/cc"
	"ibox/internal/iboxnet"
	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/stats"
	"ibox/internal/trace"
)

// AdaptiveResult evaluates the §6 extension ("Learning adaptive cross
// traffic"): on an instance whose competing workload is a closed-loop TCP
// Cubic flow, compare the counterfactual quality of (a) replaying the
// estimated cross-traffic byte series (the paper's iBoxNet) against (b)
// expressing it as competing Cubic flows (this repository's extension).
// The treatment protocol is Vegas, which yields to competition — exactly
// the case where non-adaptive replay fails, as §6 anticipates.
type AdaptiveResult struct {
	Scale Scale
	// BurstTput holds the mean Vegas throughput (bits/sec) inside the
	// cross-traffic burst window for ground truth, replay and adaptive.
	GTBurstTput, ReplayBurstTput, AdaptiveBurstTput float64
	// Overall per-run metrics (throughput Mbps, GT first).
	GTTput, ReplayTput, AdaptiveTput float64
	// DelayCorr is the cross-correlation of each emulation's delay series
	// with ground truth.
	ReplayDelayCorr, AdaptiveDelayCorr float64
}

// adaptiveRunCfg is the known controlled path for the extension study.
func adaptiveRunCfg(seed int64) netsim.Config {
	return netsim.Config{
		Rate: 1_250_000, BufferBytes: 187_500, PropDelay: 30 * sim.Millisecond, Seed: seed,
	}
}

// adaptiveGT runs a main flow against one closed-loop Cubic cross flow
// during the middle third of the run.
func adaptiveGT(sender cc.Sender, dur sim.Time, seed int64) *trace.Trace {
	sched := sim.NewScheduler()
	cfg := adaptiveRunCfg(seed)
	path := netsim.New(sched, cfg)
	main := cc.NewFlow(sched, path.Port("main"), sender, cc.FlowConfig{
		Duration: dur, AckDelay: cfg.PropDelay,
	})
	ct := cc.NewFlow(sched, path.Port("ct"), cc.NewCubic(), cc.FlowConfig{
		Start: dur / 3, Duration: dur / 3, AckDelay: cfg.PropDelay, NoTrace: true,
	})
	main.Start()
	ct.Start()
	sched.RunUntil(dur + 3*sim.Second)
	return main.Trace()
}

// AdaptiveCT runs the extension study.
func AdaptiveCT(s Scale) (*AdaptiveResult, error) {
	sp := obs.StartSpan("adaptive")
	defer sp.End()
	dur := s.TraceDur
	if dur < 30*sim.Second {
		dur = 30 * sim.Second // the burst needs room to dominate dynamics
	}
	train := adaptiveGT(cc.NewCubic(), dur, s.Seed)
	p, err := iboxnet.Estimate(train, iboxnet.EstimatorConfig{})
	if err != nil {
		return nil, fmt.Errorf("adaptive: estimate: %w", err)
	}
	gt := adaptiveGT(cc.NewVegas(), dur, s.Seed+1)

	runOn := func(v iboxnet.Variant) *trace.Trace {
		sched := sim.NewScheduler()
		path := p.Emulate(sched, v, s.Seed+2)
		flow := cc.NewFlow(sched, path.Port("main"), cc.NewVegas(), cc.FlowConfig{
			Duration: dur, AckDelay: p.PropDelay,
		})
		flow.Start()
		sched.RunUntil(dur + 3*sim.Second)
		return flow.Trace()
	}
	replay := runOn(iboxnet.Full)
	adaptive := runOn(iboxnet.Adaptive)

	burst := func(tr *trace.Trace) float64 {
		series := tr.RecvRateSeries(sim.Second)
		lo := dur/3 + sim.Second
		hi := 2*dur/3 - sim.Second
		sum, n := 0.0, 0
		for i := 0; i < series.Len(); i++ {
			if at := series.TimeAt(i); at >= lo && at < hi {
				sum += series.Vals[i]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	step := sim.Second
	res := &AdaptiveResult{
		Scale:             s,
		GTBurstTput:       burst(gt),
		ReplayBurstTput:   burst(replay),
		AdaptiveBurstTput: burst(adaptive),
		GTTput:            gt.Throughput() / 1e6,
		ReplayTput:        replay.Throughput() / 1e6,
		AdaptiveTput:      adaptive.Throughput() / 1e6,
		ReplayDelayCorr:   stats.CrossCorrelation(replay.DelaySeries(step).Vals, gt.DelaySeries(step).Vals),
		AdaptiveDelayCorr: stats.CrossCorrelation(adaptive.DelaySeries(step).Vals, gt.DelaySeries(step).Vals),
	}
	return res, nil
}

func (r *AdaptiveResult) String() string {
	var b strings.Builder
	b.WriteString("§6 extension: adaptive cross traffic (Cubic CT vs yielding Vegas treatment)\n")
	t := &table{header: []string{"emulation", "burst-window tput Mbps", "overall tput Mbps", "delay-series corr"}}
	t.add("ground truth", f2(r.GTBurstTput/1e6), f2(r.GTTput), "-")
	t.add("replay (paper §3)", f2(r.ReplayBurstTput/1e6), f2(r.ReplayTput), f3(r.ReplayDelayCorr))
	t.add("adaptive (§6 ext.)", f2(r.AdaptiveBurstTput/1e6), f2(r.AdaptiveTput), f3(r.AdaptiveDelayCorr))
	b.WriteString(t.String())
	b.WriteString("(replay cannot push back against a yielding sender; competing Cubic flows can)\n")
	return b.String()
}
