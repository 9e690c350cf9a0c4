package netsim

import (
	"math"

	"ibox/internal/sim"
)

// This file implements a multi-user proportional-fair (PF) cellular cell —
// the scheduling discipline the paper names as what makes cellular paths
// hard for a simple network model ("despite the complexity of cellular
// networks (e.g., proportional fair scheduling [27])", §3.1.1). The
// simpler CellularModel random-walk share remains the default for corpus
// generation; PFCell exists for studies that need the real mechanism: per-
// user Rayleigh-fading channels, per-TTI rate selection by the PF metric
// instantRate/avgThroughput, and the resulting heavy-tailed per-user rate
// process.

// PFCellModel attaches the path's bottleneck to one user of a PF-scheduled
// cell shared with Background competing users.
type PFCellModel struct {
	// TTI is the scheduling interval (default 1 ms, as in LTE).
	TTI sim.Time
	// PeakRate is the cell's maximum single-user rate in bytes/sec when
	// the channel is at its mean quality.
	PeakRate float64
	// Background is the number of competing (always-backlogged) users.
	Background int
	// DopplerHz controls how fast each user's Rayleigh channel decorrelates
	// (default 5 Hz ≈ pedestrian).
	DopplerHz float64
	// Alpha is the PF averaging constant (default 0.01 ⇒ ~100 TTI memory).
	Alpha float64
}

func (m *PFCellModel) withDefaults() PFCellModel {
	out := *m
	if out.TTI <= 0 {
		out.TTI = sim.Millisecond
	}
	if out.DopplerHz <= 0 {
		out.DopplerHz = 5
	}
	if out.Alpha <= 0 {
		out.Alpha = 0.01
	}
	if out.Background < 0 {
		out.Background = 0
	}
	return out
}

// pfCell simulates the cell and drives the link's rate: on each TTI the
// scheduler picks the user maximizing instantaneous rate ÷ smoothed
// throughput; the path's user receives the cell's full rate on TTIs it
// wins and zero otherwise. The link rate is updated with the user's
// smoothed allocation over a short horizon so packet service times remain
// well-defined.
type pfCell struct {
	cfg   PFCellModel
	link  *link
	sched *sim.Scheduler
	rng   *randSource

	// Per-user state: Rayleigh channel (two Gaussian taps) and PF average.
	i, q  []float64 // in-phase / quadrature tap per user
	avg   []float64 // smoothed throughput per user (PF denominator)
	rates []float64 // this TTI's instantaneous rate per user (scratch)
	share float64   // smoothed rate of user 0 (ours), bytes/sec
}

// startPFCell begins the TTI loop. User 0 is the path's user.
func startPFCell(sched *sim.Scheduler, l *link, cfg PFCellModel, rng *randSource) {
	cfg = cfg.withDefaults()
	n := cfg.Background + 1
	c := &pfCell{
		cfg: cfg, link: l, sched: sched, rng: rng,
		i: make([]float64, n), q: make([]float64, n), avg: make([]float64, n),
		rates: make([]float64, n),
	}
	for u := 0; u < n; u++ {
		c.i[u] = gaussian(rng)
		c.q[u] = gaussian(rng)
		c.avg[u] = cfg.PeakRate / float64(n)
	}
	c.share = cfg.PeakRate / float64(n)
	var tick func()
	tick = func() {
		c.step()
		sched.After(cfg.TTI, tick)
	}
	sched.After(cfg.TTI, tick)
}

// step advances the fading processes one TTI, runs the PF decision and
// updates the link rate.
func (c *pfCell) step() {
	// Jakes-like first-order Gauss-Markov fading: rho per TTI from the
	// Doppler frequency.
	rho := math.Exp(-2 * math.Pi * c.cfg.DopplerHz * c.cfg.TTI.Seconds())
	s := math.Sqrt(1 - rho*rho)
	best, bestMetric := 0, math.Inf(-1)
	n, rates := len(c.i), c.rates
	for u := 0; u < n; u++ {
		c.i[u] = rho*c.i[u] + s*gaussian(c.rng)
		c.q[u] = rho*c.q[u] + s*gaussian(c.rng)
		// Rayleigh power, mean 2 across the two taps; Shannon-ish mapping
		// keeps rates positive with diminishing returns.
		snr := (c.i[u]*c.i[u] + c.q[u]*c.q[u]) / 2
		rates[u] = c.cfg.PeakRate * math.Log2(1+2*snr) / math.Log2(3)
		metric := rates[u] / math.Max(c.avg[u], 1)
		if metric > bestMetric {
			best, bestMetric = u, metric
		}
	}
	for u := 0; u < n; u++ {
		got := 0.0
		if u == best {
			got = rates[u]
		}
		c.avg[u] = (1-c.cfg.Alpha)*c.avg[u] + c.cfg.Alpha*got
	}
	// Our user's effective service rate: the PF-smoothed allocation, with
	// a floor so service times stay finite.
	c.share = math.Max(c.avg[0], 0.01*c.cfg.PeakRate/float64(n))
	c.link.setRate(c.share)
}
