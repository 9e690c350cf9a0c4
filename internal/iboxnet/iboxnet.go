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
	p.CrossTraffic = estimateCrossTraffic(tr, p, cfg)
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
// is unknown there).
//
// The backlog samples are the delivered packets in send order, read in
// place: the window boundaries only move forward, so one cursor over
// tr.Packets finds each boundary's neighbouring samples.
func estimateCrossTraffic(tr *trace.Trace, p Params, cfg EstimatorConfig) *trace.Series {
	start := tr.Packets[0].SendTime
	end := start + tr.Duration()
	n := int((end - start) / cfg.CTWindow)
	if n <= 0 {
		n = 1
	}
	ct := trace.NewSeries(start, cfg.CTWindow, n)

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
	pkts := tr.Packets
	backlog := func(i int) float64 {
		q := pkts[i].Delay() - p.PropDelay
		if q < 0 {
			q = 0
		}
		return q.Seconds() * p.Bandwidth
	}

	// The cursor: next is the first sample sent at or after the time last
	// sought (len(pkts) if none), prev the last sample before it (-1 if
	// none).
	next, prev := 0, -1
	seek := func(t sim.Time) {
		for ; next < len(pkts) && (pkts[next].Lost || pkts[next].SendTime < t); next++ {
			if !pkts[next].Lost {
				prev = next
			}
		}
	}
	// backlogAt moves the cursor to t and interpolates the backlog at t
	// from the nearest samples; ok is false when no sample is within one
	// window of t.
	backlogAt := func(t sim.Time) (float64, bool) {
		seek(t)
		switch {
		case prev < 0:
			if pkts[next].SendTime-t > cfg.CTWindow {
				return 0, false
			}
			return backlog(next), true
		case next == len(pkts):
			if t-pkts[prev].SendTime > cfg.CTWindow {
				return 0, false
			}
			return backlog(prev), true
		default:
			lo, hi := pkts[prev].SendTime, pkts[next].SendTime
			if hi == lo {
				return backlog(next), true
			}
			if t-lo > cfg.CTWindow && hi-t > cfg.CTWindow {
				return 0, false
			}
			frac := float64(t-lo) / float64(hi-lo)
			return backlog(prev)*(1-frac) + backlog(next)*frac, true
		}
	}

	for w := 0; w < n; w++ {
		t0 := start + sim.Time(w)*cfg.CTWindow
		t1 := t0 + cfg.CTWindow
		b0, ok0 := backlogAt(t0)
		first := next // the window's first sample, if it has any
		b1, ok1 := backlogAt(t1)
		if !ok0 || !ok1 {
			continue // no observations: conservative 0
		}
		// The smallest backlog sample in [t0, t1): those are the samples
		// from first up to the one next now names.
		minB, any := 0.0, false
		for i := first; i < next; i++ {
			if pkts[i].Lost {
				continue
			}
			if b := backlog(i); !any || b < minB {
				minB, any = b, true
			}
		}
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
