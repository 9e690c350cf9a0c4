package iboxml

import (
	"fmt"
	"strings"

	"ibox/internal/trace"
)

// This file implements §6's "Establishing the Limits of Model Validity":
// "if the sending rate in the training data never exceeded a certain level
// R, even over short periods, it would not be possible for iBoxML to
// accurately predict the output when the rate does exceed R." A trained
// model therefore records the envelope of its training features, and a
// ValidityReport measures how far a test workload strays outside it.

// featureNames labels the WindowFeatures columns for reporting.
var featureNames = []string{"send-rate", "spacing", "pkt-size", "prev-delay", "cross-traffic"}

// ValidityReport describes how much of a test input lies outside the
// model's training envelope.
type ValidityReport struct {
	// Windows is the number of feature windows examined.
	Windows int
	// OutOfRange[f] is the fraction of windows whose feature f falls more
	// than tolerance standard deviations outside the training min/max.
	OutOfRange map[string]float64
	// WorstFeature is the feature with the highest out-of-range fraction.
	WorstFeature string
	// WorstFraction is that fraction.
	WorstFraction float64
}

// Valid reports whether the input is inside the envelope everywhere (up
// to the given per-feature fraction budget).
func (v ValidityReport) Valid(budget float64) bool {
	return v.WorstFraction <= budget
}

// String summarizes the report.
func (v ValidityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "validity over %d windows:", v.Windows)
	for _, name := range featureNames {
		if frac, ok := v.OutOfRange[name]; ok {
			fmt.Fprintf(&b, " %s=%.1f%%", name, 100*frac)
		}
	}
	return b.String()
}

// envelope tracks per-feature training min/max.
type envelope struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

func fitEnvelope(rows [][]float64) envelope {
	if len(rows) == 0 {
		return envelope{}
	}
	d := len(rows[0])
	e := envelope{Min: make([]float64, d), Max: make([]float64, d)}
	copy(e.Min, rows[0])
	copy(e.Max, rows[0])
	for _, r := range rows[1:] {
		for j, v := range r {
			if v < e.Min[j] {
				e.Min[j] = v
			}
			if v > e.Max[j] {
				e.Max[j] = v
			}
		}
	}
	return e
}

// Validity evaluates a test input against the model's training envelope.
// A feature value counts as out of range when it exceeds the training
// min/max by more than 10% of the training span (or any amount, for a
// constant training feature). ct may be nil.
func (m *Model) Validity(tr *trace.Trace, ct *trace.Series) ValidityReport {
	if !m.trained {
		panic("iboxml: model not trained")
	}
	xs := m.features(tr, ct, tr.Duration())
	rep := ValidityReport{Windows: len(xs), OutOfRange: map[string]float64{}}
	if len(xs) == 0 || len(m.env.Min) == 0 {
		return rep
	}
	d := len(m.env.Min)
	counts := make([]int, d)
	for _, row := range xs {
		for j := 0; j < d && j < len(row); j++ {
			span := m.env.Max[j] - m.env.Min[j]
			slack := 0.1 * span
			if row[j] < m.env.Min[j]-slack || row[j] > m.env.Max[j]+slack {
				counts[j]++
			}
		}
	}
	for j := 0; j < d; j++ {
		name := featureNames[j]
		frac := float64(counts[j]) / float64(len(xs))
		rep.OutOfRange[name] = frac
		if frac > rep.WorstFraction {
			rep.WorstFraction = frac
			rep.WorstFeature = name
		}
	}
	return rep
}
