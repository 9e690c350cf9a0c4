// Package iboxnet implements the paper's network-model-based approach
// (§3): it learns a parameterized single-bottleneck network model — the
// mostly static bottleneck bandwidth b, propagation delay d and buffer
// size B, plus the dynamic competing cross-traffic time series C — from an
// input–output packet trace, and instantiates the learnt model as an
// emulator on which a different protocol can then be run (the instance and
// ensemble tests of §2).
//
// Estimation follows §3 exactly:
//
//   - bandwidth: the peak receiving rate over 1-second sliding windows;
//   - propagation delay: the minimum delay observed (some packet meets an
//     empty queue);
//   - buffer size: bandwidth × (max delay − min delay) (some packet meets
//     an almost-full queue; byte-based buffer);
//   - cross traffic: a conservative (lower-bound) estimate from the three
//     "forces" acting on the bottleneck queue — sender inflow (known),
//     cross-traffic inflow (estimated), and dequeue drain (active only
//     while the queue is provably non-empty).
package iboxnet

import (
	"fmt"
	"sort"
	"time"

	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Params is a learnt iBoxNet model: the (b, d, B, C) of Fig 1 plus the
// observed loss rate used by the statistical-loss ablation (Fig 3(b)).
type Params struct {
	// Bandwidth is the estimated bottleneck rate in bytes per second.
	Bandwidth float64
	// PropDelay is the estimated one-way propagation delay.
	PropDelay sim.Time
	// BufferBytes is the estimated bottleneck buffer size in bytes.
	BufferBytes int
	// CrossTraffic is the estimated competing cross-traffic in bytes per
	// window (conservative lower bound), aligned to the training trace's
	// timeline.
	CrossTraffic *trace.Series
	// LossRate is the packet-loss rate observed in the training trace; the
	// statistical-loss variant replays it as i.i.d. random loss, as in the
	// calibrated-emulator baseline the paper compares against.
	LossRate float64
}

// String summarizes the learnt parameters.
func (p Params) String() string {
	ct := 0.0
	if p.CrossTraffic != nil {
		ct = p.CrossTraffic.Mean() * 8 / p.CrossTraffic.Step.Seconds()
	}
	return fmt.Sprintf("iboxnet.Params{b=%.2f Mbps, d=%.1f ms, B=%d B, meanCT=%.2f Mbps, loss=%.3f}",
		p.Bandwidth*8/1e6, p.PropDelay.Millis(), p.BufferBytes, ct/1e6, p.LossRate)
}

// EstimatorConfig tunes the estimation procedure. Zero values select the
// paper's settings.
type EstimatorConfig struct {
	// BandwidthWindow is the sliding-window width for the peak-receive-rate
	// bandwidth estimator; default 1 s (§3).
	BandwidthWindow sim.Time
	// CTWindow is the discretization step for the cross-traffic series;
	// default 100 ms.
	CTWindow sim.Time
	// QueueEpsilon is the queueing delay above which the bottleneck queue
	// is considered provably non-empty; default 2 ms.
	QueueEpsilon sim.Time
	// MinBufferBytes floors the buffer estimate so that a low-delay-spread
	// trace still yields a workable emulator; default 2 packets (3000 B).
	MinBufferBytes int
	// KnownBandwidth, when positive, overrides the peak-receive-rate
	// bandwidth estimator with a known bottleneck rate (bytes/sec). The
	// peak-rate estimator assumes "the sender tries to saturate the
	// bottleneck" (§6); for traces from senders that never do (e.g. a
	// backed-off RTC flow) on a *known* topology — such as the controlled
	// setups of Figs 4 and 7 — the true rate is available and should be
	// used. It stands in for the paper's multi-flow aggregation mitigation.
	KnownBandwidth float64
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.BandwidthWindow <= 0 {
		c.BandwidthWindow = sim.Second
	}
	if c.CTWindow <= 0 {
		c.CTWindow = 100 * sim.Millisecond
	}
	if c.QueueEpsilon <= 0 {
		c.QueueEpsilon = 2 * sim.Millisecond
	}
	if c.MinBufferBytes <= 0 {
		c.MinBufferBytes = 3000
	}
	return c
}

// Estimate learns iBoxNet parameters from one input–output trace.
func Estimate(tr *trace.Trace, cfg EstimatorConfig) (Params, error) {
	if h := obs.Get().Histogram("iboxnet.estimate_ns"); h != nil {
		defer h.ObserveSince(time.Now())
		obs.Get().Counter("iboxnet.estimates").Add(1)
	}
	cfg = cfg.withDefaults()
	if err := tr.Validate(); err != nil {
		return Params{}, err
	}
	n := delivered(tr)
	if n < 10 {
		return Params{}, fmt.Errorf("iboxnet: trace has only %d delivered packets; need ≥ 10", n)
	}

	bw := tr.PeakRecvRate(cfg.BandwidthWindow) / 8 // bits/s → bytes/s
	if cfg.KnownBandwidth > 0 {
		bw = cfg.KnownBandwidth
	}
	if bw <= 0 {
		return Params{}, fmt.Errorf("iboxnet: estimated bandwidth is zero")
	}
	minD, _ := tr.MinDelay()
	maxD, _ := tr.MaxDelay()
	buf := int(bw * (maxD - minD).Seconds())
	if buf < cfg.MinBufferBytes {
		buf = cfg.MinBufferBytes
	}

	p := Params{
		Bandwidth:   bw,
		PropDelay:   minD,
		BufferBytes: buf,
		LossRate:    tr.LossRate(),
	}
	p.CrossTraffic = estimateCrossTraffic(tr, n, p, cfg)
	return p, nil
}

// delivered counts tr's delivered packets.
func delivered(tr *trace.Trace) int {
	n := 0
	for _, pkt := range tr.Packets {
		if !pkt.Lost {
			n++
		}
	}
	return n
}

// estimateCrossTraffic implements §3's three-force queue analysis.
//
// For each delivered packet we infer the bottleneck backlog it observed:
// queueing delay × bandwidth. Over each window [t, t+Δ) where the queue is
// provably non-empty throughout (every backlog sample in and adjacent to
// the window exceeds ε·b̂), conservation gives
//
//	backlog(t+Δ) − backlog(t) = inflowS + inflowCT − b̂·Δ
//
// so inflowCT = Δbacklog − inflowS + b̂·Δ. Windows where the queue may
// have emptied contribute the conservative lower bound 0 (the drain term
// is unknown there). ndel is the number of delivered packets in tr.
func estimateCrossTraffic(tr *trace.Trace, ndel int, p Params, cfg EstimatorConfig) *trace.Series {
	start := tr.Packets[0].SendTime
	end := start + tr.Duration()
	n := int((end - start) / cfg.CTWindow)
	if n <= 0 {
		n = 1
	}
	ct := trace.NewSeries(start, cfg.CTWindow, n)

	// Backlog samples in send-time order: (sendTime, backlogBytes).
	type sample struct {
		at      sim.Time
		backlog float64
	}
	samples := make([]sample, 0, ndel)
	for _, pkt := range tr.Packets {
		if pkt.Lost {
			continue
		}
		q := pkt.Delay() - p.PropDelay
		if q < 0 {
			q = 0
		}
		samples = append(samples, sample{pkt.SendTime, q.Seconds() * p.Bandwidth})
	}

	// Sender inflow per window (delivered bytes only: drop-tail losses
	// never occupied the queue).
	inflow := make([]float64, n)
	for _, pkt := range tr.Packets {
		w := int((pkt.SendTime - start) / cfg.CTWindow)
		if !pkt.Lost && w >= 0 && w < n {
			inflow[w] += float64(pkt.Size)
		}
	}

	epsBytes := cfg.QueueEpsilon.Seconds() * p.Bandwidth

	// backlogAt interpolates the backlog at time t from the nearest
	// samples; ok is false when no sample is within one window of t.
	backlogAt := func(t sim.Time) (float64, bool) {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at >= t })
		switch {
		case i == 0:
			if samples[0].at-t > cfg.CTWindow {
				return 0, false
			}
			return samples[0].backlog, true
		case i == len(samples):
			if t-samples[i-1].at > cfg.CTWindow {
				return 0, false
			}
			return samples[i-1].backlog, true
		default:
			lo, hi := samples[i-1], samples[i]
			if hi.at == lo.at {
				return hi.backlog, true
			}
			if t-lo.at > cfg.CTWindow && hi.at-t > cfg.CTWindow {
				return 0, false
			}
			frac := float64(t-lo.at) / float64(hi.at-lo.at)
			return lo.backlog*(1-frac) + hi.backlog*frac, true
		}
	}

	// minBacklogIn returns the smallest backlog sample in [t0, t1), or +∞
	// when the window has no samples.
	minBacklogIn := func(t0, t1 sim.Time) (float64, bool) {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at >= t0 })
		best, found := 0.0, false
		for ; i < len(samples) && samples[i].at < t1; i++ {
			if !found || samples[i].backlog < best {
				best, found = samples[i].backlog, true
			}
		}
		return best, found
	}

	for w := 0; w < n; w++ {
		t0 := start + sim.Time(w)*cfg.CTWindow
		t1 := t0 + cfg.CTWindow
		b0, ok0 := backlogAt(t0)
		b1, ok1 := backlogAt(t1)
		if !ok0 || !ok1 {
			continue // no observations: conservative 0
		}
		minB, any := minBacklogIn(t0, t1)
		if !any {
			minB = (b0 + b1) / 2
		}
		// The queue must have been non-empty throughout for the drain term
		// to be exactly b̂·Δ.
		if b0 <= epsBytes || b1 <= epsBytes || minB <= epsBytes {
			continue
		}
		drain := p.Bandwidth * cfg.CTWindow.Seconds()
		est := (b1 - b0) - inflow[w] + drain
		if est > 0 {
			ct.Vals[w] = est
		}
	}
	return ct
}

// Variant selects which learnt components the emulator uses.
type Variant int

const (
	// Full uses bandwidth, delay, buffer and the replayed cross traffic —
	// the complete iBoxNet of Fig 2.
	Full Variant = iota
	// NoCT drops the cross-traffic input (the ablation of Fig 3(a)).
	NoCT
	// StatLoss drops cross traffic and instead applies the observed loss
	// rate as i.i.d. random loss — the calibrated-emulator baseline the
	// paper compares against in Fig 3(b).
	StatLoss
	// Adaptive replaces the cross-traffic replay with closed-loop TCP
	// Cubic flows learnt from the byte series — the §6 "learning adaptive
	// cross traffic" extension (see LearnAdaptiveCT).
	Adaptive
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Full:
		return "iboxnet"
	case NoCT:
		return "iboxnet-noct"
	case StatLoss:
		return "iboxnet-statloss"
	case Adaptive:
		return "iboxnet-adaptive"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Emulate instantiates the learnt model as a network path on the given
// scheduler — Fig 1's "iBoxNet ... sets them on the NetEm emulator". The
// returned path implements the cc.Network contract via Port, so any
// congestion-control sender runs closed-loop against the learnt model.
func (p Params) Emulate(sched *sim.Scheduler, v Variant, seed int64) *netsim.Path {
	if v == Adaptive {
		return p.EmulateAdaptive(sched, seed)
	}
	cfg := netsim.Config{
		Rate:        p.Bandwidth,
		BufferBytes: p.BufferBytes,
		PropDelay:   p.PropDelay,
		Seed:        seed,
	}
	if v == StatLoss {
		// Guard: Validate requires LossProb < 1.
		if p.LossRate < 1 {
			cfg.LossProb = p.LossRate
		} else {
			cfg.LossProb = 0.99
		}
	}
	path := netsim.New(sched, cfg)
	if v == Full && p.CrossTraffic != nil {
		path.AddCrossTraffic(netsim.Replay{
			Start: p.CrossTraffic.Start,
			Step:  p.CrossTraffic.Step,
			Bytes: p.CrossTraffic.Vals,
		})
	}
	return path
}
