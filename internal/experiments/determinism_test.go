package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/sim"
)

// tinyScale keeps the serial/pool A/B runs fast: the point of these
// tests is bit-equality, not statistical fidelity.
func tinyScale() Scale {
	return Scale{
		EnsembleTraces: 4,
		TraceDur:       4 * sim.Second,
		TrainTraces:    4,
		TestTraces:     3,
		RTCTraces:      6,
		MLEpochs:       2,
		RunsPerPattern: 2,
		SpeedWarmup:    10,
		SpeedSamples:   50,
		Seed:           7,
	}
}

// parallelScale is tinyScale on the default fan-out path: neither Serial
// nor Pool is set, so every par.Map makes its own pool of
// min(GOMAXPROCS, n) workers. GOMAXPROCS is raised to 8 for the test so
// those pools fan out even on a one-CPU machine.
func parallelScale(t *testing.T) Scale {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return tinyScale()
}

// TestFig3SerialParallelIdentical covers the variant-level fan-out layered
// on the per-trace fan-out, each on its own per-call pool.
func TestFig3SerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial := tinyScale()
	serial.Serial = true
	rs, err := Fig3(serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig3(parallelScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.String(), rs.String(); got != want {
		t.Errorf("parallel Fig3 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestTable1SerialParallelIdentical proves the same for the iBoxML
// training pipeline: trace generation, the two model trainings and the
// per-call evaluation all fan out on per-call pools, and the resulting
// table and raw per-call p95 delays are identical to a single-goroutine
// run on the same seed.
func TestTable1SerialParallelIdentical(t *testing.T) {
	serial := tinyScale()
	serial.Serial = true
	rs, err := Table1(serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Table1(parallelScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.String(), rs.String(); got != want {
		t.Errorf("parallel Table1 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if err := sameTable1(rs, rp); err != nil {
		t.Error(err)
	}
}

// TestFig2ObservedIdentical is the observability half of the determinism
// contract (see internal/obs): enabling metrics and spans must not change
// any experiment output. The instrumentation only ever writes clock
// readings into obs state — nothing reads them back into the pipeline —
// so an observed run is byte-identical to an unobserved one.
func TestFig2ObservedIdentical(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs registry unexpectedly installed at test start")
	}
	plain, err := Fig2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	observed, err := Fig2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := observed.String(), plain.String(); got != want {
		t.Errorf("observed Fig2 output differs from unobserved:\n--- unobserved ---\n%s\n--- observed ---\n%s", want, got)
	}
	// The run must actually have been observed, or this test proves
	// nothing.
	if n := obs.Get().Counter("pantheon.traces").Value(); n == 0 {
		t.Error("observed run recorded no pantheon.traces — instrumentation not active?")
	}
	if len(obs.Get().BuildReport().Stages) == 0 {
		t.Error("observed run recorded no stages")
	}
}

// TestTable1ObservedIdentical proves the same over the iBoxML training
// pipeline, whose instrumentation (per-epoch loss gauges and timings)
// sits inside the training loop itself.
func TestTable1ObservedIdentical(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs registry unexpectedly installed at test start")
	}
	plain, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	observed, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := observed.String(), plain.String(); got != want {
		t.Errorf("observed Table1 output differs from unobserved:\n--- unobserved ---\n%s\n--- observed ---\n%s", want, got)
	}
	if n := obs.Get().Counter("iboxml.epochs").Value(); n == 0 {
		t.Error("observed run recorded no iboxml.epochs — instrumentation not active?")
	}
}

// TestSharedPoolSerialIdentical is the determinism contract: running an
// experiment's fan-outs on one shared engine pool (nested maps
// dispatched help-first through par.PoolMap, exactly as ibox-experiments
// wires it) must produce output byte-identical to a single-goroutine
// run. Every per-trace RNG seed is derived from the trace index before
// dispatch, so goroutine scheduling cannot perturb any stochastic
// component (race-safe RNG usage is part of what is proven here; run
// with -race). The experiments share ONE pool across subtests, so later
// experiments run against a pool that earlier ones already exercised —
// the deployment shape. Where a row has raw results beyond its table,
// same compares them too.
func TestSharedPoolSerialIdentical(t *testing.T) {
	pool := par.NewPool(8)
	defer pool.Close()
	for _, e := range []struct {
		name string
		run  func(Scale) (fmt.Stringer, error)
		same func(serial, pooled fmt.Stringer) error
		slow bool
	}{
		{"fig2", func(s Scale) (fmt.Stringer, error) { return Fig2(s) }, sameFig2, false},
		{"fig3", func(s Scale) (fmt.Stringer, error) { return Fig3(s) }, nil, true},
		{"fig5", func(s Scale) (fmt.Stringer, error) { return Fig5(s) }, nil, true},
		{"fig7", func(s Scale) (fmt.Stringer, error) { return Fig7(s) }, nil, true},
		{"table1", func(s Scale) (fmt.Stringer, error) { return Table1(s) }, sameTable1, false},
	} {
		t.Run(e.name, func(t *testing.T) {
			if e.slow && testing.Short() {
				t.Skip("short mode")
			}
			serial := tinyScale()
			serial.Serial = true
			pooled := tinyScale()
			pooled.Pool = pool
			rs, err := e.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := e.run(pooled)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rp.String(), rs.String(); got != want {
				t.Errorf("shared-pool %s output differs from serial:\n--- serial ---\n%s\n--- pool ---\n%s", e.name, want, got)
			}
			if e.same != nil {
				if err := e.same(rs, rp); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// sameFig2 compares the raw per-trace treatment metrics, not just the
// formatted table.
func sameFig2(serial, pooled fmt.Stringer) error {
	rs, rp := serial.(*Fig2Result), pooled.(*Fig2Result)
	for i := range rs.Ensemble.SimTreatment {
		if rs.Ensemble.SimTreatment[i] != rp.Ensemble.SimTreatment[i] {
			return fmt.Errorf("SimTreatment[%d]: serial %+v != pool %+v",
				i, rs.Ensemble.SimTreatment[i], rp.Ensemble.SimTreatment[i])
		}
	}
	return nil
}

// sameTable1 compares the raw per-call p95 delays.
func sameTable1(serial, pooled fmt.Stringer) error {
	rs, rp := serial.(*Table1Result), pooled.(*Table1Result)
	for i := range rs.GTP95 {
		if rs.GTP95[i] != rp.GTP95[i] || rs.NoCTP95[i] != rp.NoCTP95[i] || rs.WithCTP95[i] != rp.WithCTP95[i] {
			return fmt.Errorf("call %d: serial (%.6f %.6f %.6f) != pool (%.6f %.6f %.6f)",
				i, rs.GTP95[i], rs.NoCTP95[i], rs.WithCTP95[i],
				rp.GTP95[i], rp.NoCTP95[i], rp.WithCTP95[i])
		}
	}
	return nil
}

// TestSharedPoolRoutesFanouts proves Scale.Pool actually routes the
// fan-outs through the pool (a silently ignored Pool field would make
// TestSharedPoolSerialIdentical pass vacuously).
func TestSharedPoolRoutesFanouts(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs registry unexpectedly installed at test start")
	}
	obs.Enable()
	defer obs.Disable()
	pool := par.NewPool(4)
	defer pool.Close()
	s := tinyScale()
	s.Pool = pool
	if _, err := Table1(s); err != nil {
		t.Fatal(err)
	}
	if n := obs.Get().Counter("par.pool_maps").Value(); n == 0 {
		t.Error("pooled Table1 run dispatched no PoolMap calls — Options.Pool routing broken?")
	}
}
