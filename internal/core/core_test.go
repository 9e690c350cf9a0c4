package core

import (
	"math"
	"testing"

	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

func TestMetricsOf(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		send := sim.Time(i) * 10 * sim.Millisecond
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: int64(i), Size: 1250, SendTime: send, RecvTime: send + 40*sim.Millisecond,
		})
	}
	tr.Packets[3].Lost = true
	m := MetricsOf(tr)
	if m.LossPct != 1 {
		t.Errorf("LossPct = %v, want 1", m.LossPct)
	}
	if math.Abs(m.P95DelayMs-40) > 1e-9 {
		t.Errorf("P95DelayMs = %v, want 40", m.P95DelayMs)
	}
	if m.ThroughputMbps <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestFitAndRun(t *testing.T) {
	inst := pantheon.Ethernet().Sample(3, 0)
	gt, err := inst.Run("cubic", 8*sim.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Fit(gt, iboxnet.Full)
	if err != nil {
		t.Fatal(err)
	}
	sim1, err := model.Run("cubic", 8*sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim1.Validate(); err != nil {
		t.Fatal(err)
	}
	// The model must reproduce its own training protocol's throughput
	// within 25%.
	g, s := gt.Throughput(), sim1.Throughput()
	if math.Abs(g-s)/g > 0.25 {
		t.Errorf("throughput GT %.2f vs sim %.2f Mbps", g/1e6, s/1e6)
	}
	// Running an unknown protocol errors.
	if _, err := model.Run("nope", sim.Second, 0); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := model.Run("cubic", 0, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestEnsembleTestShapes(t *testing.T) {
	corpus, err := pantheon.Generate(pantheon.Ethernet(), 4, "cubic", 6*sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EnsembleTest(corpus, "vegas", iboxnet.Full, 6*sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GTControl) != 4 || len(res.SimControl) != 4 ||
		len(res.GTTreatment) != 4 || len(res.SimTreatment) != 4 {
		t.Fatalf("result sizes: %d %d %d %d", len(res.GTControl), len(res.SimControl),
			len(res.GTTreatment), len(res.SimTreatment))
	}
	for _, key := range []string{"control/tput", "control/p95", "control/loss",
		"treatment/tput", "treatment/p95", "treatment/loss"} {
		ks, ok := res.KS[key]
		if !ok {
			t.Errorf("missing KS entry %q", key)
			continue
		}
		if math.IsNaN(ks.Statistic) {
			t.Errorf("KS %q is NaN", key)
		}
	}
	tput, p95, loss := res.MeanAbsError()
	if tput < 0 || p95 < 0 || loss < 0 {
		t.Error("negative mean abs error")
	}
}

func TestEnsembleTestEmptyCorpus(t *testing.T) {
	if _, err := EnsembleTest(&pantheon.Corpus{}, "vegas", iboxnet.Full, sim.Second, 0); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestRunFeatures(t *testing.T) {
	mk := func(phase float64) *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 600; i++ {
			send := sim.Time(i) * 10 * sim.Millisecond
			d := 30 + 20*math.Sin(2*math.Pi*float64(i)/100+phase)
			tr.Packets = append(tr.Packets, trace.Packet{
				Seq: int64(i), Size: 1000, SendTime: send,
				RecvTime: send + sim.Time(d*float64(sim.Millisecond)),
			})
		}
		return tr
	}
	run := mk(0)
	refSame := mk(0.1)
	refDiff := mk(math.Pi)
	f := RunFeatures(run, []*trace.Trace{refSame, refDiff}, 100*sim.Millisecond)
	if len(f) != 4 {
		t.Fatalf("feature length %d, want 4", len(f))
	}
	// Delay correlation with the in-phase reference must exceed the
	// anti-phase one.
	if f[1] <= f[3] {
		t.Errorf("in-phase delay corr %.2f not above anti-phase %.2f", f[1], f[3])
	}
}

// BenchmarkEnsembleRow is one row of the Fig 2 ensemble test: the
// treatment on the ground-truth instance, a fit of the control trace,
// both protocols on the fitted model and the four rows of metrics, over a
// 10-s India-cellular cubic trace. With -benchmem, B/op is the
// allocation one row costs.
func BenchmarkEnsembleRow(b *testing.B) {
	corpus, err := pantheon.Generate(pantheon.IndiaCellular(), 1, "cubic", 10*sim.Second, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnsembleTest(corpus, "vegas", iboxnet.Full, 10*sim.Second, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
