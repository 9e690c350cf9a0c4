// The race detector drops a share of sync.Pool puts on purpose, so the
// pools this measures through do not hold under it.
//
//go:build !race

package core

import (
	"runtime"
	"slices"
	"testing"

	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// TestRunBytesPerPacket bounds the bytes a flow run allocates per packet
// it records, trace included, for both runners of the offline pipeline.
// A trace record is 40 B, and one exact-size copy of the records is all
// a run needs beyond a working set its predecessors leave in the pools;
// growing the trace by append cost ≈200 B per packet in all.
func TestRunBytesPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	inst := pantheon.Ethernet().Sample(3, 0)
	gt, err := inst.Run("cubic", 10*sim.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Fit(gt, iboxnet.Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(seed int64) (*trace.Trace, error)
	}{
		{"pantheon.Instance.Run", func(seed int64) (*trace.Trace, error) { return inst.Run("cubic", 10*sim.Second, seed) }},
		{"core.Model.Run", func(seed int64) (*trace.Trace, error) { return model.Run("cubic", 10*sim.Second, seed) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The smallest of a few runs: a collection in the middle of
			// one empties the pools it borrows from.
			var perPkt []float64
			for seed := int64(1); seed <= 5; seed++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tr, err := c.run(seed)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				perPkt = append(perPkt, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(tr.Packets)))
			}
			if got := slices.Min(perPkt); got > 60 {
				t.Errorf("%.1f B allocated per recorded packet (runs: %.1f), want ≤ 60", got, perPkt)
			}
		})
	}
}

// TestLentRunBytesPerPacket is TestRunBytesPerPacket for measured runs:
// a run that lends its trace records into a packet array an earlier run
// gave back, so it allocates no trace at all, and what is left per
// packet is the run's own working set beyond what the pools hand it.
func TestLentRunBytesPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	inst := pantheon.Ethernet().Sample(3, 0)
	gt, err := inst.Run("cubic", 10*sim.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Fit(gt, iboxnet.Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		lend func(seed int64, use func(*trace.Trace)) error
	}{
		{"pantheon.Instance.LendRun", func(seed int64, use func(*trace.Trace)) error {
			return inst.LendRun("cubic", 10*sim.Second, seed, use)
		}},
		{"core.Model.LendRun", func(seed int64, use func(*trace.Trace)) error {
			return model.LendRun("cubic", 10*sim.Second, seed, use)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The smallest of a few runs, as in TestRunBytesPerPacket.
			var perPkt []float64
			for seed := int64(1); seed <= 5; seed++ {
				var before, after runtime.MemStats
				n := 0
				runtime.ReadMemStats(&before)
				err := c.lend(seed, func(tr *trace.Trace) { n = len(tr.Packets) })
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				perPkt = append(perPkt, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
			}
			if got := slices.Min(perPkt); got > 8 {
				t.Errorf("%.2f B allocated per recorded packet (runs: %.2f), want ≤ 8", got, perPkt)
			}
		})
	}
}
