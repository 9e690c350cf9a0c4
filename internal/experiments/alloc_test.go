// The race detector drops a share of sync.Pool puts on purpose, so the
// pools this measures through do not hold under it.
//
//go:build !race

package experiments

import (
	"runtime"
	"slices"
	"testing"

	"ibox/internal/par"
	"ibox/internal/sim"
)

// offlinePassBudget is the most bytes one warm offline pass at the bench
// harness's warm-up scale may allocate, most of it the traces the pass
// keeps (its corpora). The pass allocated 9.7–10.5 MB before measured
// runs borrowed their traces and paths built only what they use, and
// 3.2–3.5 MB after.
const offlinePassBudget = 4_000_000

// TestOfflinePassAllocBudget runs Fig 2, Fig 3 and Table 1 at the scale
// of the offline_pipeline workload's warm-up pass (2 ensemble traces, 6
// RTC traces, 1 epoch, 10-s flows) on a two-worker pool and bounds the
// bytes a pass allocates: the smallest of three passes after a first
// that fills the pools, since a collection in the middle of one empties
// the pools it borrows from.
func TestOfflinePassAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	pool := par.NewPool(2)
	defer pool.Close()
	s := Scale{EnsembleTraces: 2, TraceDur: 10 * sim.Second, RTCTraces: 6, MLEpochs: 1, Seed: 1, Pool: pool}
	pass := func() {
		if _, err := Fig2(s); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig3(s); err != nil {
			t.Fatal(err)
		}
		if _, err := Table1(s); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	var bytes []uint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if got := slices.Min(bytes); got > offlinePassBudget {
		t.Errorf("a warm offline pass allocates %d B (passes: %d), want ≤ %d", got, bytes, offlinePassBudget)
	}
}
