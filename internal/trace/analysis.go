package trace

import (
	"math"

	"ibox/internal/sim"
)

// This file holds second-order trace analyses used by behaviour discovery
// and diagnostics: jitter, autocorrelation, and burstiness measures.

// Jitter returns the RFC 3550-style smoothed interarrival jitter estimate
// in milliseconds: J += (|D| − J)/16 over consecutive delivered packets,
// where D is the difference in one-way delay.
func (t *Trace) Jitter() float64 {
	j := 0.0
	var prev sim.Time
	first := true
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if !first {
			d := math.Abs((p.Delay() - prev).Millis())
			j += (d - j) / 16
		}
		prev, first = p.Delay(), false
	}
	return j
}

// DelayAutocorrelation returns the lag-k autocorrelation of the per-window
// delay series — a measure of how persistent congestion episodes are
// (white-noise delays ≈ 0, long queue epochs ≈ 1).
func (t *Trace) DelayAutocorrelation(window sim.Time, lag int) float64 {
	s := t.DelaySeries(window)
	return autocorr(s.Vals, lag)
}

// autocorr computes the lag-k sample autocorrelation.
func autocorr(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || n <= lag {
		return 0
	}
	m := 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// Burstiness returns the coefficient of variation of receiver inter-
// arrival times (CV = std/mean): ≈1 for Poisson arrivals, ≫1 for bursty
// delivery, ≈0 for perfectly paced delivery.
func (t *Trace) Burstiness() float64 {
	n := t.numDelivered()
	if n < 3 {
		return 0
	}
	// Sort arrivals by receive time (reordering perturbs seq order).
	arr := make([]sim.Time, 0, n)
	for _, p := range t.Packets {
		if !p.Lost {
			arr = append(arr, p.RecvTime)
		}
	}
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	gaps := make([]float64, len(arr)-1)
	mean := 0.0
	for i := 1; i < len(arr); i++ {
		gaps[i-1] = (arr[i] - arr[i-1]).Seconds()
		mean += gaps[i-1]
	}
	mean /= float64(len(gaps))
	if mean == 0 {
		return 0
	}
	v := 0.0
	for _, g := range gaps {
		d := g - mean
		v += d * d
	}
	v /= float64(len(gaps))
	return math.Sqrt(v) / mean
}

// LossRuns returns the distribution of consecutive-loss burst lengths: a
// map from run length to occurrence count. Random (Bernoulli) loss gives
// geometrically decaying runs; drop-tail overflow gives long runs.
func (t *Trace) LossRuns() map[int]int {
	out := map[int]int{}
	run := 0
	for _, p := range t.Packets {
		if p.Lost {
			run++
			continue
		}
		if run > 0 {
			out[run]++
			run = 0
		}
	}
	if run > 0 {
		out[run]++
	}
	return out
}
