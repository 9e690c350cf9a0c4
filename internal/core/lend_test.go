package core

import (
	"math"
	"slices"
	"testing"

	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// sameMetrics reports whether a and b are bit-equal, NaN included.
func sameMetrics(a, b Metrics) bool {
	return math.Float64bits(a.ThroughputMbps) == math.Float64bits(b.ThroughputMbps) &&
		math.Float64bits(a.P95DelayMs) == math.Float64bits(b.P95DelayMs) &&
		math.Float64bits(a.LossPct) == math.Float64bits(b.LossPct)
}

// TestLendRunMatchesRun checks a measured run against a kept one: for
// cubic, vegas and bbr on the ground-truth instance and on each iBoxNet
// variant, the trace LendRun lends holds the packets, and gives the
// Metrics, of the trace Run returns, bit for bit. Each protocol lends
// twice, so the second run records into an array the first gave back.
func TestLendRunMatchesRun(t *testing.T) {
	const dur = 5 * sim.Second
	inst := pantheon.IndiaCellular().Sample(11, 2)
	gt, err := inst.Run("cubic", dur, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, kept *trace.Trace, lend func(use func(*trace.Trace)) error) {
		t.Helper()
		want := MetricsOf(kept)
		for range 2 {
			var got Metrics
			var same bool
			if err := lend(func(tr *trace.Trace) {
				got = MetricsOf(tr)
				same = tr.Protocol == kept.Protocol && tr.PathID == kept.PathID && slices.Equal(tr.Packets, kept.Packets)
			}); err != nil {
				t.Fatal(err)
			}
			if !same {
				t.Error("lent trace differs from the kept one")
			}
			if !sameMetrics(got, want) {
				t.Errorf("lent run's metrics %+v, kept run's %+v", got, want)
			}
		}
	}
	protocols := []string{"cubic", "vegas", "bbr"}
	for _, p := range protocols {
		t.Run("ground-truth/"+p, func(t *testing.T) {
			kept, err := inst.Run(p, dur, 7)
			if err != nil {
				t.Fatal(err)
			}
			check(t, kept, func(use func(*trace.Trace)) error { return inst.LendRun(p, dur, 7, use) })
		})
	}
	for _, v := range []iboxnet.Variant{iboxnet.Full, iboxnet.NoCT, iboxnet.StatLoss, iboxnet.Adaptive} {
		model, err := Fit(gt, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range protocols {
			t.Run(v.String()+"/"+p, func(t *testing.T) {
				kept, err := model.Run(p, dur, 9)
				if err != nil {
					t.Fatal(err)
				}
				check(t, kept, func(use func(*trace.Trace)) error { return model.LendRun(p, dur, 9, use) })
			})
		}
	}
}
