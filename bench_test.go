package ibox

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation and substrate micro-benchmarks. Each
// table/figure benchmark regenerates the experiment at Quick scale and, on
// the first iteration, logs the same rows/series the paper reports (run
// with -v to see them). Absolute numbers come from our synthetic substrate
// rather than the authors' testbed; EXPERIMENTS.md records shape-vs-paper.
//
//	go test -bench=. -benchmem
//
// BenchmarkFig2Ensemble/{serial,parallel}       — Fig 2   ensemble A/B test, paired fan-out speedup
// BenchmarkFig3Ablations           — Fig 3   no-CT / statistical-loss ablations
// BenchmarkFig4Instance            — Fig 4   instance test (alignment + clustering)
// BenchmarkFig5Reordering          — Fig 5   reordering-rate CDFs
// BenchmarkFig7ControlLoopBias     — Fig 7   delay histograms ± CT input
// BenchmarkFig8BehaviourDiscovery  — Fig 8   SAX pattern tables
// BenchmarkTable1CrossTraffic/{serial,parallel} — Table 1 RTC p95-delay distribution error, paired fan-out speedup
// BenchmarkLSTMInferencePerPacket  — §4.2    per-packet deep inference cost
// BenchmarkHierarchicalPerPacket   — §4.2    group-amortized inference (extension)
// BenchmarkIBoxNetPerPacket        — §4.2    emulator per-packet cost
// BenchmarkBaselines               — §1      iBoxNet vs trace replay (extension)
// BenchmarkRealism                 — §6      ABR tuning transfer (extension)
// BenchmarkAblation*               — design-choice ablations (DESIGN.md)

import (
	"fmt"
	"testing"

	"ibox/internal/cc"
	"ibox/internal/experiments"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.EnsembleTraces = 6
	s.TraceDur = 8 * sim.Second
	s.TrainTraces = 6
	s.TestTraces = 4
	s.RTCTraces = 18
	s.RunsPerPattern = 3
	return s
}

// benchSerialParallel runs the same experiment in serial and parallel
// (a pool of one worker per CPU) modes as paired sub-benchmarks, so the
// fan-out speedup is measured rather than claimed. Results are
// byte-identical across modes (see internal/par and the determinism
// tests); only wall-clock differs.
func benchSerialParallel(b *testing.B, run func(experiments.Scale) (fmt.Stringer, error)) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"parallel", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchScale()
			s.Serial = mode.serial
			for i := 0; i < b.N; i++ {
				r, err := run(s)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", r)
				}
			}
		})
	}
}

func BenchmarkFig2Ensemble(b *testing.B) {
	benchSerialParallel(b, func(s experiments.Scale) (fmt.Stringer, error) {
		return experiments.Fig2(s)
	})
}

func BenchmarkFig3Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

func BenchmarkFig4Instance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

func BenchmarkFig5Reordering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

func BenchmarkFig7ControlLoopBias(b *testing.B) {
	s := benchScale()
	s.TrainTraces = experiments.Quick().TrainTraces
	s.TraceDur = experiments.Quick().TraceDur
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

func BenchmarkFig8BehaviourDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

func BenchmarkTable1CrossTraffic(b *testing.B) {
	benchSerialParallel(b, func(s experiments.Scale) (fmt.Stringer, error) {
		return experiments.Table1(s)
	})
}

// benchTrainingTrace builds a small trace for throwaway speed models.
func benchTrainingTrace() *trace.Trace {
	tr := &trace.Trace{Protocol: "bench"}
	for i := 0; i < 400; i++ {
		send := sim.Time(i) * 5 * sim.Millisecond
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: int64(i), Size: 1500, SendTime: send, RecvTime: send + 30*sim.Millisecond,
		})
	}
	return tr
}

// BenchmarkLSTMInferencePerPacket measures the §4.2 bottleneck: one LSTM
// step per packet, at the paper's depth (4 layers). The reported ns/op is
// the per-packet inference budget; divide 12 µs/op into 1500 B · 8 to get
// the implied maximum emulated rate.
func BenchmarkLSTMInferencePerPacket(b *testing.B) {
	m, err := iboxml.Train([]iboxml.TrainingSample{{Trace: benchTrainingTrace()}},
		iboxml.Config{Hidden: 64, Layers: 4, Epochs: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	step := m.PredictPacketDelay()
	feat := []float64{15000, 1.2, 1500, 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(feat)
	}
}

// BenchmarkHierarchicalPerPacket measures the §4.2 hybrid/hierarchical
// speedup: the same 4-layer LSTM advanced once per 100 ms group instead of
// per packet (compare with BenchmarkLSTMInferencePerPacket).
func BenchmarkHierarchicalPerPacket(b *testing.B) {
	m, err := iboxml.Train([]iboxml.TrainingSample{{Trace: benchTrainingTrace()}},
		iboxml.Config{Hidden: 64, Layers: 4, Epochs: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := m.NewHierarchical(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PacketDelay(sim.Time(i)*sim.Millisecond, 1500)
	}
}

// BenchmarkBaselines regenerates the §1 motivating comparison: iBoxNet vs
// trace-driven replay at predicting a treatment protocol.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Baselines(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkIBoxNetPerPacket measures the discrete-event emulator's cost
// per packet for contrast with deep inference.
func BenchmarkIBoxNetPerPacket(b *testing.B) {
	p := iboxnet.Params{
		Bandwidth:   1_250_000,
		PropDelay:   20 * sim.Millisecond,
		BufferBytes: 125_000,
	}
	sched := sim.NewScheduler()
	path := p.Emulate(sched, iboxnet.Full, 1)
	port := path.Port("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Send(1500, nil, nil)
		// Drain periodically so the queue doesn't just overflow.
		if i%32 == 31 {
			sched.RunUntil(sched.Now() + 50*sim.Millisecond)
		}
	}
	sched.RunUntil(sched.Now() + sim.Second)
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationCrossTraffic quantifies the cost/benefit of modelling
// cross traffic: full iBoxNet vs the no-CT variant on one ensemble corpus.
func BenchmarkAblationCrossTraffic(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sc := r.Scores()
			b.Logf("MAE tput: full=%.2f noct=%.2f Mbps", sc["iboxnet"].MAETput, sc["iboxnet-noct"].MAETput)
		}
	}
}

// BenchmarkAblationWindowSize sweeps the bandwidth-estimation sliding
// window (the paper fixes 1 s) and reports estimation error per width.
func BenchmarkAblationWindowSize(b *testing.B) {
	inst := benchInstance()
	gt, err := inst.run()
	if err != nil {
		b.Fatal(err)
	}
	for _, win := range []sim.Time{100 * sim.Millisecond, 500 * sim.Millisecond, sim.Second, 2 * sim.Second} {
		win := win
		b.Run(win.String(), func(b *testing.B) {
			var p iboxnet.Params
			for i := 0; i < b.N; i++ {
				var err error
				p, err = iboxnet.Estimate(gt, iboxnet.EstimatorConfig{BandwidthWindow: win})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.Bandwidth/1.25e6*100, "%of-true-bw")
		})
	}
}

type benchInst struct{}

func benchInstance() benchInst { return benchInst{} }

func (benchInst) run() (*trace.Trace, error) {
	sched := sim.NewScheduler()
	path := netsim.New(sched, netsim.Config{
		Rate: 1_250_000, BufferBytes: 125_000, PropDelay: 20 * sim.Millisecond, Seed: 5,
	})
	flow := cc.NewFlow(sched, path.Port("m"), cc.NewCubic(), cc.FlowConfig{
		Duration: 10 * sim.Second, AckDelay: 20 * sim.Millisecond,
	})
	flow.Start()
	sched.RunUntil(13 * sim.Second)
	return flow.Trace(), flow.Trace().Validate()
}

// BenchmarkAblationLSTMDepth reports training+inference cost against model
// size (the §4.2 hybrid-model argument: accuracy/speed trade-off).
func BenchmarkAblationLSTMDepth(b *testing.B) {
	tr := benchTrainingTrace()
	for _, cfg := range []struct{ layers, hidden int }{{1, 16}, {2, 32}, {4, 64}} {
		cfg := cfg
		b.Run(
			// e.g. "2x32"
			itoa(cfg.layers)+"x"+itoa(cfg.hidden),
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := iboxml.Train([]iboxml.TrainingSample{{Trace: tr}},
						iboxml.Config{Hidden: cfg.hidden, Layers: cfg.layers, Epochs: 2, Seed: 2}); err != nil {
						b.Fatal(err)
					}
				}
			})
	}
}

// BenchmarkAblationReorderPredictor contrasts the LSTM and linear
// reordering predictors' training cost (Fig 5's "lightweight model
// suffices" claim; their accuracy comparison is in Fig 5 itself).
func BenchmarkAblationReorderPredictor(b *testing.B) {
	corpus, err := GenerateCorpus(CellularReorder(), 3, "vegas", 6*sim.Second, 9)
	if err != nil {
		b.Fatal(err)
	}
	var samples []iboxml.TrainingSample
	for _, tr := range corpus.Traces {
		samples = append(samples, iboxml.TrainingSample{Trace: tr})
	}
	b.Run("lstm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := iboxml.TrainLSTMReorder(samples, iboxml.LSTMReorderConfig{
				Hidden: 12, Epochs: 5, MaxPacketsPerTrace: 1500, Seed: 3,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := iboxml.TrainLinearReorder(samples, false, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAdaptiveCT quantifies the §6 adaptive-cross-traffic
// extension: replay vs competing-Cubic-flow emulation against a yielding
// treatment protocol.
func BenchmarkAblationAdaptiveCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AdaptiveCT(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkRealism regenerates the §6 application-performance realism
// study (ABR tuning transfer).
func BenchmarkRealism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Realism(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkParMapObserved measures the observability layer's overhead on
// the fan-out hot path: the same par.Map workload with the obs registry
// disabled (the default: no clock reads, no atomics) and enabled (pool
// wait + per-item histograms). Run with -benchmem: the disabled mode must
// not allocate on behalf of obs, and the enabled/disabled gap is the whole
// cost of instrumentation.
func BenchmarkParMapObserved(b *testing.B) {
	const items = 64
	work := func(i int) (int, error) {
		v := i
		for j := 0; j < 2000; j++ {
			v = v*1664525 + 1013904223
		}
		return v, nil
	}
	for _, mode := range []struct {
		name   string
		enable bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.enable {
				obs.Enable()
				defer obs.Disable()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := par.Map(items, par.Options{}, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkNetsimPacketsPerSecond measures raw simulator throughput.
func BenchmarkNetsimPacketsPerSecond(b *testing.B) {
	sched := sim.NewScheduler()
	path := netsim.New(sched, netsim.Config{
		Rate: 125_000_000, BufferBytes: 10_000_000, PropDelay: sim.Millisecond, Seed: 1,
	})
	port := path.Port("m")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Send(1500, nil, nil)
		if i%64 == 63 {
			sched.RunUntil(sched.Now() + 10*sim.Millisecond)
		}
	}
}

// BenchmarkEstimate measures full iBoxNet parameter estimation on a
// 10-second Cubic trace.
func BenchmarkEstimate(b *testing.B) {
	gt, err := benchInstance().run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iboxnet.Estimate(gt, iboxnet.EstimatorConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
