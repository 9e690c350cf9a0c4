package experiments

import (
	"math"
	"runtime"
	"testing"

	"ibox/internal/obs"
)

// Golden for the deterministic half of an observed `-run fig2,table1`:
// Table 1's held-out fidelity scorecard and the pipeline's work counters.
// Both are pure functions of the seed, so they are pinned exactly —
// fidelity as Float64bits — and a change that moves any of them (a
// kernel that rounds differently, a trainer that runs one more epoch, a
// generator that draws one more trace) fails here. Recorded at tinyScale
// on amd64; other architectures may fuse multiply-adds.

// goldenTable1Fidelity pins each Table 1 model's held-out calibration.
var goldenTable1Fidelity = []struct {
	label           string
	epochs, windows int
	nll, pitDev     uint64 // math.Float64bits
}{
	{"table1/no-ct", 6, 73, 0x3ffb383f4179402b, 0x3fc9c67cd8059c67},
	{"table1/with-ct", 6, 73, 0x3ff396ab09e355cf, 0x3fdaea41edc3aea4},
}

// goldenWorkCounters pins the exact work counters of the observed run.
var goldenWorkCounters = map[string]int64{
	"iboxml.epochs":        12,
	"iboxml.trainings":     2,
	"core.ensemble_traces": 4,
	"pantheon.traces":      4,
}

// TestGoldenTable1Fidelity runs Fig 2 then Table 1 at tinyScale with
// observability on and compares the fidelity records and work counters
// against the golden.
func TestGoldenTable1Fidelity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may round differently", runtime.GOARCH)
	}
	if obs.Enabled() {
		t.Fatal("obs registry unexpectedly installed at test start")
	}
	obs.Enable()
	defer obs.Disable()
	if _, err := Fig2(tinyScale()); err != nil {
		t.Fatal(err)
	}
	if _, err := Table1(tinyScale()); err != nil {
		t.Fatal(err)
	}
	r := obs.Get()

	recs := map[string]obs.Fidelity{}
	for _, f := range r.FidelityRecords() {
		recs[f.Label] = f
	}
	for _, want := range goldenTable1Fidelity {
		f, ok := recs[want.label]
		if !ok {
			t.Errorf("%s: no fidelity record", want.label)
			continue
		}
		if f.Epochs != want.epochs || f.HeldOutWindows != want.windows {
			t.Errorf("%s: epochs %d, held-out windows %d; want %d, %d",
				want.label, f.Epochs, f.HeldOutWindows, want.epochs, want.windows)
		}
		if got := math.Float64bits(f.HeldOutNLL); got != want.nll {
			t.Errorf("%s: held_out_nll %v (%#x), want %v (%#x)",
				want.label, f.HeldOutNLL, got, math.Float64frombits(want.nll), want.nll)
		}
		if got := math.Float64bits(f.PITDeviation); got != want.pitDev {
			t.Errorf("%s: pit_deviation %v (%#x), want %v (%#x)",
				want.label, f.PITDeviation, got, math.Float64frombits(want.pitDev), want.pitDev)
		}
	}
	for name, want := range goldenWorkCounters {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}
