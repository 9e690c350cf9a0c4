package cc

import (
	"math"
	"math/rand"
	"testing"

	"ibox/internal/sim"
)

// ackAt builds a simple ack with the given timing.
func ackAt(seq int64, send, owd, rtt sim.Time) Ack {
	return Ack{
		Seq: seq, Size: 1500,
		SendTime: send, RecvTime: send + owd, AckTime: send + rtt,
	}
}

func TestRenoSlowStartDoublesPerRTT(t *testing.T) {
	r := NewReno()
	w0 := r.Window()
	// One ack per outstanding packet: slow start adds 1 per ack.
	for i := 0; i < w0; i++ {
		r.OnAck(sim.Second, ackAt(int64(i), 0, 20*sim.Millisecond, 40*sim.Millisecond))
	}
	if got := r.Window(); got != 2*w0 {
		t.Errorf("after one slow-start round: cwnd %d, want %d", got, 2*w0)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno()
	// Leave slow start via a loss.
	r.OnLoss(sim.Second, 5, 900*sim.Millisecond)
	w := r.Window()
	// Two rounds' worth of acks: roughly +2 packets (1/cwnd per ack; the
	// harmonic growth plus integer truncation makes the bound one-sided).
	for i := 0; i < 2*w; i++ {
		r.OnAck(2*sim.Second, ackAt(int64(100+i), sim.Second, 20*sim.Millisecond, 40*sim.Millisecond))
	}
	if got := r.Window(); got < w+1 || got > w+3 {
		t.Errorf("two CA rounds grew cwnd %d → %d, want ≈+2", w, got)
	}
}

func TestRenoOneDecreasePerLossEvent(t *testing.T) {
	r := NewReno()
	for i := 0; i < 100; i++ {
		r.OnAck(sim.Second, ackAt(int64(i), 0, 20*sim.Millisecond, 40*sim.Millisecond))
	}
	w := r.Window()
	// Three losses of packets all sent before the first cut: one decrease.
	r.OnLoss(2*sim.Second, 200, 1900*sim.Millisecond)
	after1 := r.Window()
	r.OnLoss(2*sim.Second+sim.Millisecond, 201, 1901*sim.Millisecond)
	r.OnLoss(2*sim.Second+2*sim.Millisecond, 202, 1902*sim.Millisecond)
	if got := r.Window(); got != after1 {
		t.Errorf("same-event losses decreased again: %d → %d", after1, got)
	}
	if after1 >= w {
		t.Errorf("no decrease: %d → %d", w, after1)
	}
	// A loss of a packet sent after the cut is a new event.
	r.OnLoss(3*sim.Second, 300, 2500*sim.Millisecond)
	if got := r.Window(); got >= after1 {
		t.Errorf("new-event loss did not decrease: %d → %d", after1, got)
	}
}

func TestCubicConcaveThenConvex(t *testing.T) {
	c := NewCubic()
	// Reach congestion avoidance with a healthy window.
	for i := 0; i < 200; i++ {
		c.OnAck(sim.Second, ackAt(int64(i), 0, 20*sim.Millisecond, 40*sim.Millisecond))
	}
	c.OnLoss(2*sim.Second, 500, 1900*sim.Millisecond)
	wCut := float64(c.Window())
	// Feed acks over simulated time and record the window trajectory.
	var traj []float64
	now := 2 * sim.Second
	// K = cbrt(Wmax·0.3/0.4) ≈ 5.4 s for Wmax ≈ 210, so run well past it
	// to see the convex region.
	for step := 0; step < 300; step++ {
		now += 50 * sim.Millisecond
		for k := 0; k < 20; k++ {
			c.OnAck(now, ackAt(int64(1000+step*20+k), now-40*sim.Millisecond, 20*sim.Millisecond, 40*sim.Millisecond))
		}
		traj = append(traj, float64(c.Window()))
	}
	// The window must regain the pre-cut level (concave approach to Wmax)…
	reached := false
	for _, w := range traj {
		if w >= wCut/cubicBeta*0.95 {
			reached = true
		}
	}
	if !reached {
		t.Errorf("cubic never re-approached Wmax: cut at %.0f, max %v", wCut, max64(traj))
	}
	// …and then keep growing past it (convex probing).
	if last := traj[len(traj)-1]; last <= wCut/cubicBeta+2 {
		t.Errorf("cubic stalled at plateau: final %f ≤ Wmax %f", last, wCut/cubicBeta)
	}
	// Monotone non-decreasing absent losses.
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1] {
			t.Fatalf("window decreased without loss at step %d", i)
		}
	}
}

// TestCubicCubeMatchesPow: Cubic.OnAck cubes t−K as d*(d*d), which must
// be math.Pow(d, 3) bit for bit, or every Cubic trace would move. Pow
// multiplies the same frexp mantissas in the same order and scales by a
// power of two, which is exact unless the cube is subnormal: there
// (0 < |d| < 2^-340 or so) Pow rounds twice and the product once, and
// they differ in about 1 % of inputs. Cubic's d never gets there: t is
// whole nanoseconds and K is 0 or at least ∛1.5, so t−K is 0 or at least
// 2^-53 in magnitude. The domains below are every other range, Cubic's
// own included.
func TestCubicCubeMatchesPow(t *testing.T) {
	n := 1 << 18
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(1))
	check := func(domain string, d float64) {
		t.Helper()
		want, got := math.Pow(d, 3), d*(d*d)
		if math.IsNaN(want) && math.IsNaN(got) {
			return
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s: d=%v (%#x): Pow %v (%#x), d*(d*d) %v (%#x)", domain, d, math.Float64bits(d),
				want, math.Float64bits(want), got, math.Float64bits(got))
		}
	}
	for _, d := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, 1, -1, 0x1p-340, 0x1p341, 0x1p342, -0x1p342,
	} {
		check("special", d)
	}
	for i := 0; i < n; i++ {
		sign := float64(1 - 2*rng.Intn(2))
		// Any magnitude over 2^±300, with a random mantissa.
		check("wide", sign*math.Exp2(600*rng.Float64()-300))
		// Cubes that overflow, or nearly do.
		check("overflow", sign*math.Exp2(340+4*rng.Float64()))
		// Denormal inputs, whose cubes are zero.
		check("denormal", sign*math.Float64frombits(rng.Uint64()&(1<<52-1)))
		// Cubic's own: t in whole nanoseconds up to 1000 s, K from a
		// window of 2 to maxWindow packets, and t near K.
		k := math.Cbrt((2 + rng.Float64()*(maxWindow-2)) * (1 - cubicBeta) / cubicC)
		check("cubic", sim.Time(rng.Int63n(1000*int64(sim.Second))).Seconds()-k)
		check("cubic near K", (sim.FromSeconds(k)+sim.Time(rng.Intn(2001)-1000)).Seconds()-k)
	}
}

func max64(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

func TestVegasBacksOffOnRisingRTT(t *testing.T) {
	v := NewVegas()
	// Warm up with base RTT 40 ms until slow start exits.
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		now += 10 * sim.Millisecond
		v.OnAck(now, ackAt(int64(i), now-40*sim.Millisecond, 20*sim.Millisecond, 40*sim.Millisecond))
	}
	wLow := v.Window()
	// RTT jumps to 120 ms (deep queue): Vegas must shrink its window.
	for i := 0; i < 400; i++ {
		now += 10 * sim.Millisecond
		v.OnAck(now, ackAt(int64(1000+i), now-120*sim.Millisecond, 100*sim.Millisecond, 120*sim.Millisecond))
	}
	if got := v.Window(); got >= wLow {
		t.Errorf("vegas window %d did not shrink from %d under rising RTT", got, wLow)
	}
}

func TestBBRStartupExitsOnPlateau(t *testing.T) {
	b := NewBBR(1500)
	if b.PacingRate() <= b.btlBw {
		t.Fatal("startup gain not applied")
	}
	// Feed acks with a fixed delivery rate: bandwidth stops growing, so
	// startup must exit within a few samples.
	now := sim.Time(0)
	delivered := int64(0)
	for i := 0; i < 50 && b.state == bbrStartup; i++ {
		now += 10 * sim.Millisecond
		delivered += 1500
		b.OnAck(now, Ack{
			Seq: int64(i), Size: 1500,
			SendTime: now - 40*sim.Millisecond, RecvTime: now - 20*sim.Millisecond, AckTime: now,
			DeliveredAtSend: delivered - 6000, Delivered: delivered,
		})
	}
	if b.state == bbrStartup {
		t.Error("BBR never exited startup on a bandwidth plateau")
	}
}

func TestBBRWindowTracksBDP(t *testing.T) {
	b := NewBBR(1500)
	now := sim.Time(0)
	delivered := int64(0)
	for i := 0; i < 200; i++ {
		now += 10 * sim.Millisecond
		delivered += 1500
		b.OnAck(now, Ack{
			Seq: int64(i), Size: 1500,
			SendTime: now - 40*sim.Millisecond, RecvTime: now - 20*sim.Millisecond, AckTime: now,
			DeliveredAtSend: delivered - 6000, Delivered: delivered,
		})
	}
	// Delivery-rate samples: 6000 B per 40 ms = 150 kB/s; BDP at 40 ms RTT
	// = 6 kB = 4 packets; window = 2×BDP = 8 (floored at 4).
	w := b.Window()
	if w < 4 || w > 16 {
		t.Errorf("BBR window %d implausible for 150 kB/s × 40 ms", w)
	}
}

func TestRTCIncreasesWhenStableDecreasesOnGradient(t *testing.T) {
	r := NewRTC(RTCConfig{InitialRate: 100_000, MaxRate: 1_000_000})
	now := sim.Time(0)
	// Stable delay: rate must grow.
	for i := 0; i < 100; i++ {
		now += 10 * sim.Millisecond
		r.OnAck(now, ackAt(int64(i), now-40*sim.Millisecond, 30*sim.Millisecond, 40*sim.Millisecond))
	}
	grown := r.Rate()
	if grown <= 100_000 {
		t.Errorf("rate %f did not grow under stable delay", grown)
	}
	// Rising delay: rate must fall.
	owd := 30 * sim.Millisecond
	for i := 0; i < 100; i++ {
		now += 10 * sim.Millisecond
		owd += 2 * sim.Millisecond
		r.OnAck(now, ackAt(int64(1000+i), now-owd-10*sim.Millisecond, owd, owd+10*sim.Millisecond))
	}
	if got := r.Rate(); got >= grown {
		t.Errorf("rate %f did not fall under rising delay (was %f)", got, grown)
	}
}
