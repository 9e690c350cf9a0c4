package iboxnet

import (
	"fmt"
	"strings"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Diagnostics reports how well a trace satisfied the estimator's
// assumptions (§6: "iBoxNet is also limited by the assumptions it makes
// about the traces"). Each field maps to one assumption; low values mean
// the corresponding parameter estimate is less trustworthy. Violations
// degrade gracefully rather than invalidating the model, but a caller
// (or operator) should know.
type Diagnostics struct {
	// SaturationFraction is the share of 1-second windows in which the
	// receive rate reached ≥90% of the estimated bandwidth — evidence for
	// "the sender tries to saturate the bottleneck". Near zero means the
	// bandwidth estimate is likely a lower bound (consider
	// EstimatorConfig.KnownBandwidth or trace.Merge).
	SaturationFraction float64
	// EmptyQueueFraction is the share of delivered packets within 20% of
	// the minimum delay — evidence that "at some point a packet traverses
	// an empty queue", backing the propagation estimate.
	EmptyQueueFraction float64
	// FullBufferSeen reports whether any packet's delay approached the
	// implied buffer limit while losses occurred nearby — evidence for the
	// buffer-size estimate ("a packet traverses an almost full queue").
	FullBufferSeen bool
	// ObservableQueueFraction is the share of cross-traffic windows where
	// the queue was provably non-empty, i.e. where the CT estimate is an
	// actual measurement rather than the conservative zero.
	ObservableQueueFraction float64
}

// String summarizes the report.
func (d Diagnostics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "saturation=%.0f%% empty-queue=%.1f%% observable-CT=%.0f%% full-buffer=%v",
		100*d.SaturationFraction, 100*d.EmptyQueueFraction,
		100*d.ObservableQueueFraction, d.FullBufferSeen)
	return b.String()
}

// Trustworthy reports whether every estimator assumption had at least
// minimal support in the trace.
func (d Diagnostics) Trustworthy() bool {
	return d.SaturationFraction > 0.05 && d.EmptyQueueFraction > 0.001
}

// Diagnose evaluates the estimator's assumptions on a trace against the
// learnt parameters.
func Diagnose(tr *trace.Trace, p Params, cfg EstimatorConfig) Diagnostics {
	cfg = cfg.withDefaults()
	var d Diagnostics
	ndel := delivered(tr)
	if ndel == 0 || p.Bandwidth <= 0 {
		return d
	}

	// Saturation: receive rate per 1s window vs estimated bandwidth.
	recv := tr.RecvRateSeries(sim.Second)
	sat := 0
	for _, v := range recv.Vals {
		if v/8 >= 0.9*p.Bandwidth {
			sat++
		}
	}
	if recv.Len() > 0 {
		d.SaturationFraction = float64(sat) / float64(recv.Len())
	}

	// Empty queue: packets whose delay is within 20% of the minimum.
	minD, _ := tr.MinDelay()
	near := 0
	for _, pk := range tr.Packets {
		if !pk.Lost && float64(pk.Delay()) <= 1.2*float64(minD) {
			near++
		}
	}
	d.EmptyQueueFraction = float64(near) / float64(ndel)

	// Full buffer: a delay within 10% of the implied maximum plus at least
	// one loss in the trace.
	maxImplied := minD + sim.Time(float64(p.BufferBytes)/p.Bandwidth*float64(sim.Second))
	sawDeep := false
	for _, pk := range tr.Packets {
		if !pk.Lost && float64(pk.Delay()) >= 0.9*float64(maxImplied) {
			sawDeep = true
			break
		}
	}
	d.FullBufferSeen = sawDeep && p.LossRate > 0

	// Observable CT windows: nonzero entries of the conservative series
	// over windows spanned by the trace.
	if p.CrossTraffic != nil && p.CrossTraffic.Len() > 0 {
		nz := 0
		for _, v := range p.CrossTraffic.Vals {
			if v > 0 {
				nz++
			}
		}
		d.ObservableQueueFraction = float64(nz) / float64(p.CrossTraffic.Len())
	}
	return d
}
