// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from a Scale (how much
// data/compute to spend) to a structured result whose String method prints
// the same rows/series the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Index (see DESIGN.md for the full mapping):
//
//	Fig2  — ensemble A/B test on the synthetic India-Cellular corpus
//	Fig3  — ablations: no cross-traffic; statistical loss
//	Fig4  — instance test: time-series alignment + k-means clustering
//	Fig5  — CDF of reordering rate: GT / iBoxML / iBoxNet+LSTM / +Linear
//	Fig7  — control-loop bias: delay histograms ± cross-traffic input
//	Fig8  — SAX behaviour discovery pattern tables
//	Table1 — iBoxML ± cross-traffic on RTC traces: p95-delay distribution error
//	Speed — §4.2 per-packet inference cost and implied emulation rate
package experiments

import (
	"fmt"
	"strings"

	"ibox/internal/par"
	"ibox/internal/sim"
)

// Scale controls how much data and compute an experiment uses. The Quick
// scale keeps every experiment in CI-friendly territory; Paper approaches
// the paper's data sizes (minutes of CPU).
type Scale struct {
	// EnsembleTraces is the number of corpus instances for Figs 2–3.
	EnsembleTraces int
	// TraceDur is the per-flow duration (the paper's Pantheon traces are 30 s).
	TraceDur sim.Time
	// TrainTraces/TestTraces are the Fig 5/Fig 8 corpus split sizes (paper:
	// 100 train / 60 test).
	TrainTraces, TestTraces int
	// RTCTraces is the Table 1 corpus size (paper: ≈540).
	RTCTraces int
	// MLEpochs is the iBoxML training epoch count.
	MLEpochs int
	// RunsPerPattern is the Fig 4 repeat count (paper: 10).
	RunsPerPattern int
	// SpeedWarmup/SpeedSamples are the §4.2 per-packet timing loop sizes
	// (warm-up steps discarded, then timed steps).
	SpeedWarmup, SpeedSamples int
	// Seed drives all sampling.
	Seed int64
	// Serial disables the per-trace fan-out (results are byte-identical
	// either way; the knob exists for determinism tests and paired
	// benchmarks). Serial also bypasses Pool.
	Serial bool
	// Pool, when non-nil, runs every fan-out in the experiment — the
	// corpus generation, the per-variant and per-trace maps, the model
	// trainings — on one shared engine-wide worker pool instead of a
	// pool per fan-out, so nested fan-outs (Fig 3's variants × traces)
	// share a single concurrency budget rather than oversubscribing the
	// cores. Results are byte-identical with or without it (see
	// par.PoolMap); ibox-experiments and the bench/ harness's
	// offline_pipeline workload own the pool and set it here.
	Pool *par.Pool
}

// Par resolves the scale's execution options for the par fan-out
// primitive.
func (s Scale) Par() par.Options {
	return par.Options{Serial: s.Serial, Pool: s.Pool}
}

// Quick returns a scale that runs every experiment in seconds.
func Quick() Scale {
	return Scale{
		EnsembleTraces: 8,
		TraceDur:       10 * sim.Second,
		TrainTraces:    8,
		TestTraces:     6,
		RTCTraces:      24,
		MLEpochs:       12,
		RunsPerPattern: 4,
		SpeedWarmup:    50,
		SpeedSamples:   500,
		Seed:           1,
	}
}

// Paper returns a scale close to the paper's data sizes. Expect minutes of
// CPU per experiment.
func Paper() Scale {
	return Scale{
		EnsembleTraces: 40,
		TraceDur:       30 * sim.Second,
		TrainTraces:    100,
		TestTraces:     60,
		RTCTraces:      540,
		MLEpochs:       30,
		RunsPerPattern: 10,
		SpeedWarmup:    200,
		SpeedSamples:   3000,
		Seed:           1,
	}
}

// table renders an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
