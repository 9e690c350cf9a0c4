package experiments

import (
	"fmt"
	"strings"

	"ibox/internal/cc"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/stats"
	"ibox/internal/trace"
)

// Table1Result reproduces Table 1 (§5.2): on a corpus of real-time-
// conferencing traces, feeding the §3 cross-traffic estimate into iBoxML
// reduces the deviation between the distribution of per-call 95th-
// percentile delays under the model and under ground truth. The paper
// reports, for each of P25/P50/P75/mean of that distribution, the absolute
// error in ms and as a percentage, with and without the CT input.
type Table1Result struct {
	Scale Scale
	// GTP95/NoCTP95/WithCTP95 are the distributions of per-call p95 delay.
	GTP95, NoCTP95, WithCTP95 []float64
	// Rows are the paper's table cells: error at each distribution
	// statistic, without and with CT input.
	Rows []Table1Row
}

// Table1Row is one column of the paper's table (P25, P50, P75 or mean).
type Table1Row struct {
	Stat       string
	GT         float64 // the statistic of the GT distribution (ms)
	ErrNoCT    float64 // |stat(model) − stat(GT)| without CT, ms
	ErrNoCTPct float64
	ErrCT      float64 // with CT, ms
	ErrCTPct   float64
}

// rtcTrace runs one RTC call over a randomized path with randomized cross
// traffic — the stand-in for the paper's ~540 conferencing-service traces.
//
// Crucially, most calls are rate-capped well below the path capacity (an
// audio call or a small video tile does not probe for bandwidth). On such
// calls the sender's own rate trajectory carries no information about
// congestion — delay is driven by the competing traffic — which is exactly
// the regime where the cross-traffic input earns its keep. If every call
// probed aggressively, the delay-sensitive control loop would leak the
// delay into the sending rate and a no-CT model could decode it back.
func rtcTrace(seed int64, i int, dur sim.Time) *trace.Trace {
	rng := sim.NewRand(seed, int64(i)*77+3)
	rate := 625_000 + rng.Float64()*1_250_000 // 5–15 Mbps
	cfg := netsim.Config{
		Rate:        rate,
		BufferBytes: int(rate * (0.1 + rng.Float64()*0.3)), // 100–400 ms
		PropDelay:   sim.Time(20+rng.Intn(60)) * sim.Millisecond,
		Seed:        seed*131 + int64(i),
	}
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	// Random bursty CT, reaching past capacity during bursts, plus a
	// possible constant background.
	if rng.Float64() < 0.8 {
		path.AddCrossTraffic(netsim.OnOff{
			Rate:   (0.4 + rng.Float64()*0.8) * rate,
			OnDur:  sim.Time(1+rng.Intn(3)) * sim.Second,
			OffDur: sim.Time(1+rng.Intn(4)) * sim.Second,
			From:   sim.Time(rng.Intn(3)) * sim.Second,
			To:     dur,
		})
	}
	bg := rng.Float64() * 0.3 * rate
	if bg > 0.05*rate {
		path.AddCrossTraffic(netsim.ConstantBitRate{Rate: bg, From: 0, To: dur})
	}
	// Call mix: 60% capped (audio / small video: 3–25% of capacity), 40%
	// adaptive large-video calls.
	maxRate := rate
	if rng.Float64() < 0.6 {
		maxRate = (0.03 + rng.Float64()*0.22) * rate
	}
	flow := cc.NewFlow(sched, path.Port("main"),
		cc.NewRTC(cc.RTCConfig{
			InitialRate: maxRate / 2,
			MinRate:     maxRate / 4,
			MaxRate:     maxRate,
		}), cc.FlowConfig{
			Duration: dur, AckDelay: cfg.PropDelay,
		})
	flow.Start()
	sched.RunUntil(dur + 3*sim.Second)
	path.Release()
	tr := flow.Trace()
	tr.PathID = fmt.Sprintf("rtc-%d", i)
	return tr
}

// Table1 runs the comparison. Each stage fans out over all CPUs: trace
// generation + cross-traffic estimation per call, the two (independent)
// model trainings, and per-call evaluation. Every RNG seed is derived
// from the call index or config before dispatch, so serial and parallel
// runs produce byte-identical tables.
func Table1(s Scale) (*Table1Result, error) {
	sp := obs.StartSpan("table1")
	defer sp.End()
	n := s.RTCTraces
	if n < 6 {
		n = 6
	}
	type call struct {
		tr *trace.Trace
		ct *trace.Series
	}
	gen := sp.Start("generate")
	gen.SetItems(n)
	gen.SetArg("corpus", "rtc")
	calls, err := par.Map(n, s.Par(), func(i int) (call, error) {
		tr := rtcTrace(s.Seed, i, s.TraceDur)
		var ct *trace.Series
		if params, err := iboxnet.Estimate(tr, iboxnet.EstimatorConfig{}); err == nil {
			ct = params.CrossTraffic
		}
		return call{tr, ct}, nil
	})
	gen.End()
	if err != nil {
		return nil, err
	}
	all := make([]*trace.Trace, n)
	cts := make([]*trace.Series, n)
	for i, c := range calls {
		all[i], cts[i] = c.tr, c.ct
	}
	nTrain := n * 2 / 3
	var samples []iboxml.TrainingSample
	for i := 0; i < nTrain; i++ {
		samples = append(samples, iboxml.TrainingSample{Trace: all[i], CT: cts[i]})
	}
	useCT := []bool{false, true}
	tsp := sp.Start("train")
	tsp.SetItems(len(useCT))
	models, err := par.Map(len(useCT), s.Par(), func(i int) (*iboxml.Model, error) {
		m, err := iboxml.Train(samples, iboxml.Config{
			Hidden: 16, Layers: 2, Epochs: 3 * s.MLEpochs, PrevDelayNoise: 1.0,
			UseCrossTraffic: useCT[i], Seed: s.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("table1: train (CT=%v): %w", useCT[i], err)
		}
		return m, nil
	})
	tsp.End()
	if err != nil {
		return nil, err
	}
	noCT, withCT := models[0], models[1]
	if l := obs.Logger(); l != nil {
		l.Info("table1 models trained",
			"train_calls", nTrain, "no_ct_loss", noCT.Diag.FinalLoss, "with_ct_loss", withCT.Diag.FinalLoss)
	}

	// Held-out calibration of both Gaussian heads — the run report's
	// fidelity section. Gated on observability (RecordFidelity is a pure
	// read), so an unobserved run does no extra work.
	if obs.Enabled() {
		fsp := sp.Start("fidelity")
		fsp.SetItems(len(useCT))
		var heldOut []iboxml.TrainingSample
		for i := nTrain; i < n; i++ {
			heldOut = append(heldOut, iboxml.TrainingSample{Trace: all[i], CT: cts[i]})
		}
		noCT.RecordFidelity("table1/no-ct", heldOut)
		withCT.RecordFidelity("table1/with-ct", heldOut)
		fsp.End()
	}

	res := &Table1Result{Scale: s}
	eval := sp.Start("evaluate")
	eval.SetItems(n - nTrain)
	defer eval.End()
	type evalRow struct{ gt, noCT, withCT float64 }
	evals, err := par.Map(n-nTrain, s.Par(), func(k int) (evalRow, error) {
		i := nTrain + k
		gt := all[i]
		row := evalRow{gt: gt.DelayPercentile(95)}
		noCT.LendSimulatedTrace(gt, nil, s.Seed+int64(i), func(out *trace.Trace) { row.noCT = out.DelayPercentile(95) })
		withCT.LendSimulatedTrace(gt, cts[i], s.Seed+int64(i), func(out *trace.Trace) { row.withCT = out.DelayPercentile(95) })
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range evals {
		res.GTP95 = append(res.GTP95, e.gt)
		res.NoCTP95 = append(res.NoCTP95, e.noCT)
		res.WithCTP95 = append(res.WithCTP95, e.withCT)
	}

	gtS := stats.Summarize(res.GTP95)
	noS := stats.Summarize(res.NoCTP95)
	ctS := stats.Summarize(res.WithCTP95)
	mk := func(name string, gt, no, ct float64) Table1Row {
		row := Table1Row{Stat: name, GT: gt,
			ErrNoCT: abs64(no - gt), ErrCT: abs64(ct - gt)}
		if gt != 0 {
			row.ErrNoCTPct = 100 * row.ErrNoCT / gt
			row.ErrCTPct = 100 * row.ErrCT / gt
		}
		return row
	}
	res.Rows = []Table1Row{
		mk("P25", gtS.P25, noS.P25, ctS.P25),
		mk("P50", gtS.P50, noS.P50, ctS.P50),
		mk("P75", gtS.P75, noS.P75, ctS.P75),
		mk("mean", gtS.Mean, noS.Mean, ctS.Mean),
	}
	return res, nil
}

// MeanErrNoCT and MeanErrCT aggregate the table for quick comparison.
func (r *Table1Result) MeanErrNoCT() float64 {
	s := 0.0
	for _, row := range r.Rows {
		s += row.ErrNoCT
	}
	return s / float64(len(r.Rows))
}

// MeanErrCT is the with-cross-traffic counterpart of MeanErrNoCT.
func (r *Table1Result) MeanErrCT() float64 {
	s := 0.0
	for _, row := range r.Rows {
		s += row.ErrCT
	}
	return s / float64(len(r.Rows))
}

func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: error in distribution of per-call 95th-percentile delay (RTC corpus, n=%d calls)\n",
		len(r.GTP95))
	t := &table{header: []string{"cross traffic", "P25", "P50", "P75", "mean"}}
	cell := func(err, pct float64) string { return fmt.Sprintf("%.0f (%.0f%%)", err, pct) }
	noCells := []string{"No"}
	ctCells := []string{"Yes"}
	for _, row := range r.Rows {
		noCells = append(noCells, cell(row.ErrNoCT, row.ErrNoCTPct))
		ctCells = append(ctCells, cell(row.ErrCT, row.ErrCTPct))
	}
	t.add(noCells...)
	t.add(ctCells...)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "(paper: No = 20(32%%) 34(36%%) 63(45%%) 51(44%%); Yes = 3(5%%) 19(19%%) 35(25%%) 30(26%%))\n")
	return b.String()
}
