package cc

import (
	"math"

	"ibox/internal/sim"
)

// Reno implements classic TCP Reno congestion control: slow start,
// congestion avoidance (AIMD), and one multiplicative decrease per loss
// event (fast-recovery-like suppression of further reactions within the
// same window of data).
type Reno struct {
	cwnd     float64 // packets
	ssthresh float64
	// lastCut is when the window was last reduced; losses of packets sent
	// before that moment belong to the same congestion event (they were in
	// flight when we reacted) and are ignored.
	lastCut sim.Time
}

// NewReno returns a Reno sender with a 10-packet initial window.
func NewReno() *Reno {
	return &Reno{cwnd: 10, ssthresh: math.Inf(1), lastCut: -1}
}

func (r *Reno) Name() string { return "reno" }

func (r *Reno) OnAck(now sim.Time, ack Ack) {
	if r.cwnd < r.ssthresh {
		r.cwnd++ // slow start: +1 per ack
	} else {
		r.cwnd += 1 / r.cwnd // congestion avoidance: +1 per RTT
	}
}

func (r *Reno) OnLoss(now sim.Time, seq int64, sendTime sim.Time) {
	if sendTime <= r.lastCut {
		return // already reacted to this loss event
	}
	r.lastCut = now
	r.ssthresh = math.Max(r.cwnd/2, 2)
	r.cwnd = r.ssthresh
}

func (r *Reno) Window() int         { return windowInt(r.cwnd) }
func (r *Reno) PacingRate() float64 { return 0 }

// Cubic implements TCP CUBIC (RFC 8312-style window growth): after a loss
// the window follows W(t) = C·(t−K)³ + Wmax, giving the concave-then-convex
// probing that dominates the Internet — the paper's "control" protocol A.
type Cubic struct {
	cwnd       float64
	ssthresh   float64
	wMax       float64
	epochStart sim.Time
	k          float64 // seconds
	lastCut    sim.Time
	inEpoch    bool
}

// Cubic constants per RFC 8312: C scales growth, beta is the
// multiplicative-decrease factor.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// maxWindow bounds every sender's congestion window (in packets): far above
// any simulated BDP, low enough that float windows always convert to int
// safely.
const maxWindow = 1 << 20

// windowInt converts a float window to packets, clamped to [1, maxWindow].
func windowInt(w float64) int {
	if !(w > 1) { // also catches NaN
		return 1
	}
	if w > maxWindow {
		return maxWindow
	}
	return int(w)
}

// NewCubic returns a CUBIC sender with a 10-packet initial window.
func NewCubic() *Cubic {
	return &Cubic{cwnd: 10, ssthresh: math.Inf(1), lastCut: -1}
}

func (c *Cubic) Name() string { return "cubic" }

func (c *Cubic) OnAck(now sim.Time, ack Ack) {
	if c.cwnd < c.ssthresh {
		c.cwnd++
		return
	}
	if !c.inEpoch {
		c.inEpoch = true
		c.epochStart = now
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd
		}
		c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
	}
	// d*(d*d) is math.Pow(d, 3) bit for bit here: Pow takes the same two
	// products on frexp mantissas, and rounds a second time only when the
	// cube is subnormal, which needs 0 < |d| < 2^-340. Since K ≥ ∛1.5
	// (wMax ≥ 2), t−K is 0 or at least 2^-53 in magnitude.
	d := (now - c.epochStart).Seconds() - c.k
	target := cubicC*(d*(d*d)) + c.wMax
	if target > c.cwnd {
		// Approach the cubic target over one RTT's worth of acks.
		c.cwnd += (target - c.cwnd) / c.cwnd
	} else {
		c.cwnd += 0.01 / c.cwnd // minimal growth in the concave plateau
	}
}

func (c *Cubic) OnLoss(now sim.Time, seq int64, sendTime sim.Time) {
	if sendTime <= c.lastCut {
		return
	}
	c.lastCut = now
	c.wMax = c.cwnd
	c.cwnd = math.Max(c.cwnd*cubicBeta, 2)
	c.ssthresh = c.cwnd
	c.inEpoch = false
}

func (c *Cubic) Window() int         { return windowInt(c.cwnd) }
func (c *Cubic) PacingRate() float64 { return 0 }

// Vegas implements TCP Vegas, the delay-based "treatment" protocol B of the
// paper's A/B tests: it compares expected and actual throughput and keeps
// between alpha and beta packets queued at the bottleneck, backing off on
// rising delay rather than on loss.
type Vegas struct {
	cwnd        float64
	baseRTT     sim.Time
	alpha       float64 // lower bound on queued packets
	beta        float64 // upper bound on queued packets
	gamma       float64 // slow-start exit threshold
	slowStart   bool
	lastAdjust  sim.Time
	minRTTEpoch sim.Time // min RTT seen in the current adjustment epoch
	lastCut     sim.Time
}

// NewVegas returns a Vegas sender with standard (α=2, β=4, γ=1) parameters.
func NewVegas() *Vegas {
	return &Vegas{cwnd: 2, alpha: 2, beta: 4, gamma: 1, slowStart: true, lastCut: -1}
}

func (v *Vegas) Name() string { return "vegas" }

func (v *Vegas) OnAck(now sim.Time, ack Ack) {
	rtt := ack.RTT()
	if v.baseRTT == 0 || rtt < v.baseRTT {
		v.baseRTT = rtt
	}
	if v.minRTTEpoch == 0 || rtt < v.minRTTEpoch {
		v.minRTTEpoch = rtt
	}
	// Adjust once per RTT.
	if now-v.lastAdjust < v.baseRTT {
		return
	}
	v.lastAdjust = now
	sampleRTT := v.minRTTEpoch
	v.minRTTEpoch = 0
	if sampleRTT <= 0 {
		return
	}
	// diff = cwnd · (1 − baseRTT/RTT): estimated packets queued at the
	// bottleneck by this flow.
	diff := v.cwnd * (1 - float64(v.baseRTT)/float64(sampleRTT))
	if v.slowStart {
		if diff > v.gamma {
			v.slowStart = false
			v.cwnd = math.Max(v.cwnd*3/4, 2)
		} else {
			// Vegas doubles every other RTT; per-RTT is close enough. The
			// clamp guards against float blow-up when RTT never rises (a
			// pathological fixed-delay network).
			v.cwnd = math.Min(v.cwnd*2, maxWindow)
		}
		return
	}
	switch {
	case diff < v.alpha:
		v.cwnd++
	case diff > v.beta:
		v.cwnd--
	}
	if v.cwnd < 2 {
		v.cwnd = 2
	}
}

func (v *Vegas) OnLoss(now sim.Time, seq int64, sendTime sim.Time) {
	if sendTime <= v.lastCut {
		return
	}
	v.lastCut = now
	v.cwnd = math.Max(v.cwnd/2, 2)
	v.slowStart = false
}

func (v *Vegas) Window() int         { return windowInt(v.cwnd) }
func (v *Vegas) PacingRate() float64 { return 0 }
