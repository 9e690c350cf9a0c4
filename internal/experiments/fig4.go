package experiments

import (
	"fmt"
	"math"
	"strings"

	"ibox/internal/cc"
	"ibox/internal/core"
	"ibox/internal/iboxnet"
	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/stats"
	"ibox/internal/trace"
)

// Fig4Result reproduces the instance test of §3.1.2 / Fig 4: a known,
// fixed network configuration carries a main Cubic flow and one Cubic
// cross-traffic flow of fixed level and duration but different timing in
// three "instances". An iBoxNet model is learnt from a single Cubic run
// per instance (configuration and cross traffic treated as unknown), then
// Vegas is run repeatedly on both the true emulator and each learnt model.
// k-means (k=3) over cross-correlation features must cluster the runs by
// instance with no mistakes, and the learnt models' rate time series must
// align with ground truth (Fig 4(a)).
type Fig4Result struct {
	Scale Scale
	// Purity is the k-means cluster purity over all GT+model Vegas runs
	// (paper: 1.0, "perfect, i.e., with no mistakes").
	Purity float64
	// ModelPurity restricts purity to the model runs: do runs on the
	// Cubic-derived models land in their instance's GT cluster?
	ModelPurity float64
	// RateAlignment is Fig 4(a): per-instance cross-correlation between
	// the ground-truth Cubic rate series and the learnt model's Cubic rate
	// series.
	RateAlignment [3]float64
	// Embedding is the t-SNE projection of all runs (for plotting), with
	// Labels giving (instance, isModel) per point.
	Embedding [][2]float64
	Labels    []int // 0..2 GT instance k; 3..5 model instance k−3
}

// fig4Config is the "known and fixed network configuration" of §3.1.2.
func fig4Config(seed int64) netsim.Config {
	return netsim.Config{
		Rate:        1_250_000, // 10 Mbps
		BufferBytes: 187_500,   // 150 ms
		PropDelay:   30 * sim.Millisecond,
		Seed:        seed,
	}
}

// runInstance runs one main flow plus a closed-loop Cubic cross-traffic
// flow active during [ctStart, ctStart+ctDur). jitter staggers the main
// flow's start: it models the "slight timing variations in the emulator
// execution" that make the paper's repeated runs differ (our simulator is
// otherwise perfectly deterministic, so without it repeated runs would be
// bit-identical points).
func runInstance(sender cc.Sender, dur sim.Time, ctStart, ctDur sim.Time, pathSeed int64, jitter sim.Time) *trace.Trace {
	sched := sim.NewScheduler()
	cfg := fig4Config(pathSeed)
	path := netsim.New(sched, cfg)
	main := cc.NewFlow(sched, path.Port("main"), sender, cc.FlowConfig{
		Start: jitter, Duration: dur, AckDelay: cfg.PropDelay,
	})
	ct := cc.NewFlow(sched, path.Port("ct"), cc.NewCubic(), cc.FlowConfig{
		Start: ctStart, Duration: ctDur, AckDelay: cfg.PropDelay, NoTrace: true,
	})
	main.Start()
	ct.Start()
	sched.RunUntil(dur + jitter + 3*sim.Second)
	return main.Trace()
}

// runOnModel runs a sender over a learnt model with a start jitter (same
// rationale as runInstance).
func runOnModel(m *core.Model, sender cc.Sender, dur sim.Time, seed int64, jitter sim.Time) *trace.Trace {
	sched := sim.NewScheduler()
	path := m.Params.Emulate(sched, m.Variant, seed)
	flow := cc.NewFlow(sched, path.Port("main"), sender, cc.FlowConfig{
		Start: jitter, Duration: dur, AckDelay: m.Params.PropDelay,
	})
	flow.Start()
	sched.RunUntil(dur + jitter + 3*sim.Second)
	return flow.Trace()
}

// normalize scales a vector to unit L2 norm (in place) so that k-means
// distances reflect *which* reference a run correlates with rather than
// the overall correlation magnitude (model runs correlate less strongly
// than GT runs but with the same pattern).
func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	s = 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= s
	}
}

// Fig4 runs the full instance test. The timing protocol is pinned to the
// paper's: a 60 s main flow with a 10 s cross-traffic burst at 0–10 s,
// 20–30 s or 40–50 s (shorter bursts blur the instances' correlation
// signatures and clustering degrades); only RunsPerPattern scales.
func Fig4(s Scale) (*Fig4Result, error) {
	sp := obs.StartSpan("fig4")
	defer sp.End()
	dur := 60 * sim.Second
	burst := 10 * sim.Second
	offsets := [3]sim.Time{0, 2 * burst, 4 * burst}
	res := &Fig4Result{Scale: s}

	rng := sim.NewRand(s.Seed, 1234)
	jit := func() sim.Time { return sim.Time(rng.Float64() * float64(40*sim.Millisecond)) }

	// Learn one iBoxNet model per instance from a single Cubic run.
	fit := sp.Start("fit-instances")
	fit.SetItems(3)
	models := make([]*core.Model, 3)
	gtCubic := make([]*trace.Trace, 3)
	for k := 0; k < 3; k++ {
		tr := runInstance(cc.NewCubic(), dur, offsets[k], burst, s.Seed+int64(k), 0)
		gtCubic[k] = tr
		m, err := core.Fit(tr, iboxnet.Full)
		if err != nil {
			return nil, fmt.Errorf("fig4: fit instance %d: %w", k, err)
		}
		models[k] = m
	}
	fit.End()

	runs4 := sp.Start("runs")
	runs4.SetItems(3 * 2 * s.RunsPerPattern)
	// Fig 4(a): the model replays Cubic; its rate series must align with GT.
	step := 200 * sim.Millisecond
	for k := 0; k < 3; k++ {
		sim1 := runOnModel(models[k], cc.NewCubic(), dur, s.Seed+50+int64(k), 0)
		res.RateAlignment[k] = stats.CrossCorrelation(
			gtCubic[k].RecvRateSeries(step).Vals,
			sim1.RecvRateSeries(step).Vals)
	}

	// Vegas runs: RunsPerPattern ground-truth and model runs per instance.
	var runs []*trace.Trace
	var labels []int
	refs := make([]*trace.Trace, 3)
	for k := 0; k < 3; k++ {
		for r := 0; r < s.RunsPerPattern; r++ {
			j := sim.Time(0)
			if r > 0 {
				j = jit() // reference run (r=0) is unjittered
			}
			tr := runInstance(cc.NewVegas(), dur, offsets[k], burst, s.Seed+int64(k)+int64(r+1)*977, j)
			if r == 0 {
				refs[k] = tr
			}
			runs = append(runs, tr)
			labels = append(labels, k)
		}
	}
	for k := 0; k < 3; k++ {
		for r := 0; r < s.RunsPerPattern; r++ {
			tr := runOnModel(models[k], cc.NewVegas(), dur, s.Seed+int64(k)*31+int64(r)*7, jit())
			runs = append(runs, tr)
			labels = append(labels, k+3)
		}
	}

	runs4.End()

	cluster := sp.Start("cluster")
	defer cluster.End()
	// Features: cross-correlation of each run's rate and delay series
	// against the per-instance GT reference runs (§3.1.2), normalized to
	// unit length so pattern identity rather than correlation magnitude
	// drives the clustering.
	points := make([][]float64, len(runs))
	for i, tr := range runs {
		points[i] = core.RunFeatures(tr, refs, step)
		normalize(points[i])
	}
	km := stats.KMeans(points, 3, s.Seed)
	truth := make([]int, len(labels))
	for i, l := range labels {
		truth[i] = l % 3 // instance identity, GT and model pooled
	}
	res.Purity = stats.ClusterPurity(km.Assignment, truth)

	// Model-run purity: assign each model run to the majority cluster of
	// its instance's GT runs.
	gtCluster := make(map[int]int) // instance → majority GT cluster
	for k := 0; k < 3; k++ {
		counts := map[int]int{}
		for i, l := range labels {
			if l == k {
				counts[km.Assignment[i]]++
			}
		}
		best, bestN := 0, -1
		for c, n := range counts {
			if n > bestN {
				best, bestN = c, n
			}
		}
		gtCluster[k] = best
	}
	correct, total := 0, 0
	for i, l := range labels {
		if l >= 3 {
			total++
			if km.Assignment[i] == gtCluster[l-3] {
				correct++
			}
		}
	}
	if total > 0 {
		res.ModelPurity = float64(correct) / float64(total)
	}

	res.Embedding = stats.TSNE(points, stats.TSNEConfig{Seed: s.Seed, Iterations: 300})
	res.Labels = labels
	return res, nil
}

func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4: iBoxNet instance test, 60s main flow, 10s CT bursts, %d runs/pattern\n", r.Scale.RunsPerPattern)
	fmt.Fprintf(&b, "(a) Cubic rate-series alignment (xcorr GT vs model): %s %s %s\n",
		f3(r.RateAlignment[0]), f3(r.RateAlignment[1]), f3(r.RateAlignment[2]))
	fmt.Fprintf(&b, "(b) k-means (k=3) cluster purity over all Vegas runs: %s (paper: 1.000)\n", f3(r.Purity))
	fmt.Fprintf(&b, "    model runs landing in their instance's GT cluster: %s\n", f3(r.ModelPurity))
	return b.String()
}
