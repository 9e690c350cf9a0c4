package iboxml

import (
	"math"
	"slices"
	"testing"

	"ibox/internal/sim"
	"ibox/internal/stats"
	"ibox/internal/trace"
)

// synthTrace builds a trace whose delay follows the sending rate with a
// lag, mimicking queue buildup: rate oscillates, delay = base + k·ema(rate).
func synthTrace(seed int64, dur sim.Time) *trace.Trace {
	rng := sim.NewRand(seed, 5)
	tr := &trace.Trace{Protocol: "synth"}
	ema := 0.0
	var now sim.Time
	seq := int64(0)
	for now < dur {
		// Rate oscillates between 0.5 and 2 Mbps over ~4s periods.
		phase := 2 * math.Pi * now.Seconds() / 4
		rate := 156_250 * (1.25 + math.Sin(phase+float64(seed))) // bytes/s
		gap := sim.Time(1500 / rate * float64(sim.Second))
		now += gap
		ema = 0.98*ema + 0.02*rate
		delayMs := 20 + 60*(ema/312_500) + rng.NormFloat64()*1.0
		if delayMs < 1 {
			delayMs = 1
		}
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: seq, Size: 1500, SendTime: now,
			RecvTime: now + sim.Time(delayMs*float64(sim.Millisecond)),
		})
		seq++
	}
	return tr
}

func trainSamples(n int, dur sim.Time) []TrainingSample {
	var out []TrainingSample
	for i := 0; i < n; i++ {
		out = append(out, TrainingSample{Trace: synthTrace(int64(i), dur)})
	}
	return out
}

func TestWindowFeaturesShape(t *testing.T) {
	tr := synthTrace(1, 5*sim.Second)
	xs, ys, mask := WindowFeatures(tr, nil, 100*sim.Millisecond)
	if len(xs) != len(ys) || len(xs) != len(mask) {
		t.Fatalf("lengths %d/%d/%d", len(xs), len(ys), len(mask))
	}
	if len(xs) < 40 {
		t.Fatalf("too few windows: %d", len(xs))
	}
	for i, x := range xs {
		if len(x) != 4 {
			t.Fatalf("window %d dim %d, want 4", i, len(x))
		}
		if x[0] < 0 || x[1] < 0 || x[2] < 0 {
			t.Fatalf("window %d has negative features: %v", i, x)
		}
	}
	// Teacher forcing: x[t][3] == ys[t-1].
	for i := 1; i < len(xs); i++ {
		if xs[i][3] != ys[i-1] {
			t.Fatalf("window %d prev-delay feature %v != %v", i, xs[i][3], ys[i-1])
		}
	}
}

func TestWindowFeaturesWithCT(t *testing.T) {
	tr := synthTrace(2, 3*sim.Second)
	ct := trace.NewSeries(0, 100*sim.Millisecond, 30)
	for i := range ct.Vals {
		ct.Vals[i] = float64(i * 100)
	}
	xs, _, _ := WindowFeatures(tr, ct, 100*sim.Millisecond)
	if len(xs[0]) != 5 {
		t.Fatalf("dim %d, want 5 with CT", len(xs[0]))
	}
	// CT column should be nonconstant and pulled from the series.
	varying := false
	for i := 1; i < len(xs); i++ {
		if xs[i][4] != xs[0][4] {
			varying = true
		}
	}
	if !varying {
		t.Error("CT feature constant")
	}
}

func TestWindowFeaturesEmptyTrace(t *testing.T) {
	xs, ys, mask := WindowFeatures(&trace.Trace{}, nil, sim.Second)
	if xs != nil || ys != nil || mask != nil {
		t.Error("empty trace should give nil features")
	}
}

func TestPacketFeaturesRateWindow(t *testing.T) {
	// 1500B packets every 100ms: after the first second, the preceding-1s
	// byte count should be 10×1500.
	tr := &trace.Trace{}
	for i := 0; i < 30; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: int64(i), Size: 1500,
			SendTime: sim.Time(i) * 100 * sim.Millisecond,
			RecvTime: sim.Time(i)*100*sim.Millisecond + 10*sim.Millisecond,
		})
	}
	f := PacketFeatures(tr, nil)
	if len(f) != 30 {
		t.Fatalf("feature rows %d", len(f))
	}
	if f[0][0] != 0 {
		t.Errorf("first packet preceding bytes = %v, want 0", f[0][0])
	}
	if f[20][0] != 10*1500 {
		t.Errorf("steady-state preceding bytes = %v, want 15000", f[20][0])
	}
	if f[20][1] != 100 {
		t.Errorf("spacing = %v ms, want 100", f[20][1])
	}
	if f[20][2] != 1500 {
		t.Errorf("size = %v", f[20][2])
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([]TrainingSample{{Trace: &trace.Trace{}}}, Config{}); err == nil {
		t.Error("all-empty traces accepted")
	}
}

func TestModelLearnsDelayDynamics(t *testing.T) {
	// Train on 6 synthetic congestion traces, test on a held-out one: the
	// predicted window-delay series must correlate strongly with truth.
	m, err := Train(trainSamples(6, 12*sim.Second), Config{
		Hidden: 16, Layers: 1, Epochs: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	test := synthTrace(100, 12*sim.Second)
	mu, sigma := m.PredictWindows(test, nil)
	_, ys, mask := WindowFeatures(test, nil, m.Cfg.Window)
	var p, g []float64
	for i := range mu {
		if mask[i] {
			p = append(p, mu[i])
			g = append(g, ys[i])
		}
	}
	corr := stats.CrossCorrelation(p, g)
	if corr < 0.6 {
		t.Errorf("prediction/GT correlation = %.3f, want ≥ 0.6", corr)
	}
	// Mean prediction in the right ballpark (true delays ∈ [20, ~90] ms).
	pm := stats.Mean(p)
	gm := stats.Mean(g)
	if math.Abs(pm-gm) > 0.35*gm {
		t.Errorf("mean predicted delay %.1f vs true %.1f", pm, gm)
	}
	for i := range sigma {
		if sigma[i] < 0 {
			t.Fatal("negative sigma")
		}
	}
}

func TestSimulateTraceValidAndStochastic(t *testing.T) {
	m, err := Train(trainSamples(3, 6*sim.Second), Config{Hidden: 8, Layers: 1, Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := synthTrace(55, 6*sim.Second)
	in.Packets[10].Lost = true
	out := m.SimulateTrace(in, nil, 7)
	if len(out.Packets) != len(in.Packets) {
		t.Fatalf("packet count %d vs %d", len(out.Packets), len(in.Packets))
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("invalid simulated trace: %v", err)
	}
	if !out.Packets[10].Lost {
		t.Error("lost packet not echoed")
	}
	// Same seed reproduces; different seed varies.
	out2 := m.SimulateTrace(in, nil, 7)
	out3 := m.SimulateTrace(in, nil, 8)
	if out.Packets[5].RecvTime != out2.Packets[5].RecvTime {
		t.Error("same seed differs")
	}
	same := true
	for i := range out.Packets {
		if out.Packets[i].RecvTime != out3.Packets[i].RecvTime {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// TestSimulateTraceAllocs bounds the allocations of one SimulateTrace of
// a fixed 784-packet trace at the count recorded when samplePackets came
// to size its output once (89; appending every packet to a nil slice
// grew it ten more times).
func TestSimulateTraceAllocs(t *testing.T) {
	m := laneModel(t, 8, 1, 1)
	in := synthTrace(55, 6*sim.Second)
	if n := testing.AllocsPerRun(10, func() { m.SimulateTrace(in, nil, 7) }); n > 89 {
		t.Fatalf("SimulateTrace allocates %v times, want at most 89", n)
	}
}

func TestPredictPacketDelayStateful(t *testing.T) {
	m, err := Train(trainSamples(2, 4*sim.Second), Config{Hidden: 8, Layers: 1, Epochs: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	step := m.PredictPacketDelay()
	a := step([]float64{1500, 10, 1500, 20})
	b := step([]float64{1500, 10, 1500, 20})
	if a == b {
		t.Error("per-packet predictor state not advancing")
	}
}

// TestPredictPacketDelayNoAllocs pins the zero-allocation contract of the
// per-packet serving path end to end (standardize, kernel step, head,
// de-standardize).
func TestPredictPacketDelayNoAllocs(t *testing.T) {
	m, err := Train(trainSamples(2, 3*sim.Second), Config{Hidden: 8, Layers: 2, Epochs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	step := m.PredictPacketDelay()
	feats := []float64{1200, 8, 1200, 30}
	step(feats) // warm the compiled-kernel cache before counting
	if n := testing.AllocsPerRun(100, func() { step(feats) }); n != 0 {
		t.Fatalf("PredictPacketDelay allocates %v times per packet, want 0", n)
	}
}

// reorderTrace yields reordering correlated with high send rate.
func reorderTrace(seed int64, dur sim.Time) *trace.Trace {
	rng := sim.NewRand(seed, 9)
	tr := &trace.Trace{Protocol: "synth-reorder"}
	var now sim.Time
	seq := int64(0)
	var prevRecv sim.Time
	for now < dur {
		phase := 2 * math.Pi * now.Seconds() / 5
		rate := 156_250 * (1.25 + math.Sin(phase))
		gap := sim.Time(1500 / rate * float64(sim.Second))
		now += gap
		delay := 20*sim.Millisecond + sim.Time(rng.Float64()*float64(2*sim.Millisecond))
		recv := now + delay
		// High rate ⇒ 15% chance of overtaking (arrive before predecessor).
		if rate > 280_000 && rng.Float64() < 0.15 && prevRecv > now {
			recv = prevRecv - sim.Millisecond
		}
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: seq, Size: 1500, SendTime: now, RecvTime: recv,
		})
		if recv > prevRecv {
			prevRecv = recv
		}
		seq++
	}
	return tr
}

func reorderSamples(n int) []TrainingSample {
	var out []TrainingSample
	for i := 0; i < n; i++ {
		out = append(out, TrainingSample{Trace: reorderTrace(int64(i), 10*sim.Second)})
	}
	return out
}

func TestLinearReorderLearnsRateCorrelation(t *testing.T) {
	lr, err := TrainLinearReorder(reorderSamples(4), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	test := reorderTrace(50, 10*sim.Second)
	probs := lr.Probs(test, nil)
	flags := test.ReorderedFlags()
	// Mean predicted probability on truly-reordered packets must exceed
	// that on in-order packets (discrimination).
	var pr, pn float64
	var nr, nn2 int
	di := 0
	for i, p := range test.Packets {
		if p.Lost {
			continue
		}
		if flags[di] {
			pr += probs[i]
			nr++
		} else {
			pn += probs[i]
			nn2++
		}
		di++
	}
	if nr == 0 {
		t.Fatal("test trace has no reordering")
	}
	pr /= float64(nr)
	pn /= float64(nn2)
	if pr <= pn {
		t.Errorf("no discrimination: P(reordered)=%.3f vs P(in-order)=%.3f", pr, pn)
	}
}

func TestLSTMReorderTrains(t *testing.T) {
	r, err := TrainLSTMReorder(reorderSamples(2), LSTMReorderConfig{
		Hidden: 8, Epochs: 5, MaxPacketsPerTrace: 800, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	test := reorderTrace(60, 5*sim.Second)
	probs := r.Probs(test, nil)
	if len(probs) != len(test.Packets) {
		t.Fatalf("probs length %d", len(probs))
	}
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("invalid probability %v", p)
		}
	}
}

func TestAugmentReorderingCreatesNegativeInterArrivals(t *testing.T) {
	// A constant predictor at p=0.05 applied to an in-order trace must
	// yield a ~5% reordering rate and leave the original untouched.
	tr := &trace.Trace{Protocol: "inorder"}
	for i := 0; i < 4000; i++ {
		send := sim.Time(i) * 2 * sim.Millisecond
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: int64(i), Size: 1500, SendTime: send, RecvTime: send + 30*sim.Millisecond,
		})
	}
	aug := AugmentReordering(tr, constPredictor(0.05), nil, 3)
	if err := aug.Validate(); err != nil {
		t.Fatal(err)
	}
	rate := aug.ReorderingRate()
	if math.Abs(rate-0.05) > 0.015 {
		t.Errorf("augmented reordering rate = %.3f, want ≈0.05", rate)
	}
	if tr.ReorderingRate() != 0 {
		t.Error("augmentation mutated the input trace")
	}
	// Negative inter-arrivals (SAX 'a') must appear.
	neg := 0
	for _, d := range aug.InterArrivalsBySeq() {
		if d < 0 {
			neg++
		}
	}
	if neg == 0 {
		t.Error("no negative inter-arrivals after augmentation")
	}
}

type constPredictor float64

func (c constPredictor) Name() string { return "const" }
func (c constPredictor) Probs(tr *trace.Trace, _ *trace.Series) []float64 {
	out := make([]float64, len(tr.Packets))
	for i := range out {
		out[i] = float64(c)
	}
	return out
}

func TestReorderTrainRejectsEmpty(t *testing.T) {
	if _, err := TrainLSTMReorder(nil, LSTMReorderConfig{}); err == nil {
		t.Error("empty LSTM reorder training accepted")
	}
	if _, err := TrainLinearReorder(nil, false, 0); err == nil {
		t.Error("empty linear reorder training accepted")
	}
}

// TestLendSimulatedTraceMatches checks Table 1's measured output against
// the kept one: for models trained with and without the cross-traffic
// input, the trace LendSimulatedTrace lends holds SimulateTrace's packets
// and gives its p95 delay bit for bit, also when it reuses the array an
// earlier lend gave back.
func TestLendSimulatedTraceMatches(t *testing.T) {
	in := synthTrace(55, 6*sim.Second)
	in.Packets[10].Lost = true
	ct := trace.NewSeries(0, 100*sim.Millisecond, 60)
	for i := range ct.Vals {
		ct.Vals[i] = float64(i%7) * 900
	}
	for _, useCT := range []bool{false, true} {
		m, err := Train(trainSamples(2, 4*sim.Second), Config{Hidden: 8, Layers: 1, Epochs: 3, UseCrossTraffic: useCT, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*trace.Series{nil, ct} {
			for seed := int64(1); seed <= 2; seed++ {
				kept := m.SimulateTrace(in, c, seed)
				m.LendSimulatedTrace(in, c, seed, func(lent *trace.Trace) {
					if lent.Protocol != kept.Protocol || lent.PathID != kept.PathID || !slices.Equal(lent.Packets, kept.Packets) {
						t.Errorf("useCT=%v ct=%v seed %d: lent trace differs from the kept one", useCT, c != nil, seed)
					}
					if got, want := lent.DelayPercentile(95), kept.DelayPercentile(95); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("useCT=%v ct=%v seed %d: lent p95 %v, kept %v", useCT, c != nil, seed, got, want)
					}
				})
			}
		}
	}
}

func TestModelWithCTFeature(t *testing.T) {
	// Smoke test: training with UseCrossTraffic and nil CTs must widen
	// features with zeros and still train.
	m, err := Train(trainSamples(2, 4*sim.Second), Config{
		Hidden: 8, Layers: 1, Epochs: 3, UseCrossTraffic: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	test := synthTrace(70, 4*sim.Second)
	mu, _ := m.PredictWindows(test, nil)
	if len(mu) == 0 {
		t.Fatal("no predictions")
	}
	ct := trace.NewSeries(0, 100*sim.Millisecond, 40)
	mu2, _ := m.PredictWindows(test, ct)
	if len(mu2) != len(mu) {
		t.Error("CT changed prediction length")
	}
}
