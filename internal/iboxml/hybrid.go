package iboxml

import (
	"math"
	"math/rand"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// This file implements the speedups §4.2 proposes for making deep models
// usable in emulation: "iBoxML could be sped up significantly using hybrid
// models (e.g., combining an accurate but expensive model with a less
// expensive, even if less accurate, model) and a hierarchical approach
// (e.g., making a decision for a group of packets instead of each
// individually)."
//
// HierarchicalPredictor is both at once: the expensive LSTM advances once
// per *group* (time window), producing the group's delay distribution; a
// cheap closed-form per-packet stage (linear interpolation between group
// means plus the per-packet residual model from SimulateTrace) prices
// individual packets. The LSTM cost is amortized over every packet in the
// group, multiplying the implied emulation rate by the group's packet
// count (§4.2's budget arithmetic).

// HierarchicalPredictor prices packets in amortized O(1) LSTM work.
type HierarchicalPredictor struct {
	model *Model
	lane  lane
	rng   *rand.Rand

	window   sim.Time
	groupEnd sim.Time
	// Current and previous group outputs, for interpolation.
	curMu, curSigma   float64
	prevMu, prevSigma float64
	started           bool
	// Running send-side features for the current group.
	bytes   float64
	count   int
	lastOut float64
	// OU state for the per-packet residual.
	z        float64
	lastSend sim.Time
	// The reusable raw group-feature row, so the per-group LSTM advance
	// allocates nothing.
	x []float64
}

// NewHierarchical returns a per-packet predictor that advances the
// underlying LSTM only once per feature window.
func (m *Model) NewHierarchical(seed int64) *HierarchicalPredictor {
	if !m.trained {
		panic("iboxml: model not trained")
	}
	l := m.newLane()
	return &HierarchicalPredictor{
		model:    m,
		lane:     l,
		rng:      sim.NewRand(seed, 83),
		window:   m.Cfg.Window,
		lastSend: -1,
		x:        make([]float64, len(l.row)),
	}
}

// PacketDelay prices one packet sent at sendTime with the given size,
// returning the predicted one-way delay in milliseconds. Packets must be
// offered in non-decreasing send-time order.
func (h *HierarchicalPredictor) PacketDelay(sendTime sim.Time, size int) float64 {
	for !h.started || sendTime >= h.groupEnd {
		h.advanceGroup(sendTime)
	}
	// Interpolate between the previous and current group means by position
	// within the group (the hierarchical "decision for a group" smoothed).
	frac := 1 - float64(h.groupEnd-sendTime)/float64(h.window)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	mu := h.prevMu*(1-frac) + h.curMu*frac
	sigma := h.prevSigma*(1-frac) + h.curSigma*frac

	// Cheap per-packet residual: same OU + outlier structure as
	// SimulateTrace, without any LSTM work.
	dt := 0.0
	if h.lastSend >= 0 {
		dt = (sendTime - h.lastSend).Seconds()
	}
	h.lastSend = sendTime
	tau := 3 * h.window.Seconds()
	rho := math.Exp(-dt / tau)
	h.z = rho*h.z + math.Sqrt(1-rho*rho)*h.rng.NormFloat64()
	var d float64
	if h.rng.Float64() < h.model.outlierRate {
		d = h.model.minDelayMs * (1 + 0.1*math.Abs(h.rng.NormFloat64()))
	} else {
		amp := 0.15 * sigma
		d = mu + amp*h.z
	}
	if d < 0.1 {
		d = 0.1
	}
	h.bytes += float64(size)
	h.count++
	return d
}

// Group returns the current group's predicted delay distribution
// (mean, sigma in milliseconds) — the reference a live drift scorer
// compares sampled per-packet delays against.
func (h *HierarchicalPredictor) Group() (mu, sigma float64) {
	return h.curMu, h.curSigma
}

// advanceGroup runs one LSTM step for the group ending at groupEnd and
// rolls the window forward.
func (h *HierarchicalPredictor) advanceGroup(now sim.Time) {
	// h.x starts zeroed; on the first (pre-start) advance it stays all
	// zero, afterwards every feature it carries is reassigned per group.
	x := h.x
	if h.started {
		x[0] = h.bytes
		if h.count > 1 {
			x[1] = h.window.Millis() / float64(h.count)
		} else {
			x[1] = h.window.Millis()
		}
		if h.count > 0 {
			x[2] = h.bytes / float64(h.count)
		} else {
			x[2] = 0
		}
		x[3] = h.lastOut
	}
	h.prevMu, h.prevSigma = h.curMu, h.curSigma
	h.curMu, h.curSigma = h.lane.step(x, nil)
	h.lastOut = h.curMu
	if !h.started {
		h.started = true
		h.prevMu, h.prevSigma = h.curMu, h.curSigma
		h.groupEnd = now + h.window
	} else {
		h.groupEnd += h.window
	}
	h.bytes, h.count = 0, 0
}

// SimulateTraceHierarchical is SimulateTrace built on the amortized
// predictor: identical output contract, one LSTM step per window instead
// of closed-loop per-window prediction plus separate sampling.
func (m *Model) SimulateTraceHierarchical(tr *trace.Trace, seed int64) *trace.Trace {
	h := m.NewHierarchical(seed)
	out := &trace.Trace{Protocol: tr.Protocol + "-iboxml-hier", PathID: tr.PathID}
	for _, p := range tr.Packets {
		q := p
		if !p.Lost {
			d := h.PacketDelay(p.SendTime, p.Size)
			q.RecvTime = p.SendTime + sim.Time(d*float64(sim.Millisecond))
		}
		out.Packets = append(out.Packets, q)
	}
	return out
}
