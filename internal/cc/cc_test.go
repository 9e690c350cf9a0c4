package cc

import (
	"math"
	"reflect"
	"testing"

	"ibox/internal/netsim"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// runFlow runs a sender over a netsim path for dur and returns the trace.
func runFlow(t *testing.T, sender Sender, cfg netsim.Config, dur sim.Time) *trace.Trace {
	t.Helper()
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	flow := NewFlow(sched, path.Port("main"), sender, FlowConfig{
		Duration: dur,
		AckDelay: cfg.PropDelay,
	})
	flow.Start()
	sched.RunUntil(dur + 5*sim.Second)
	tr := flow.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace from %s: %v", sender.Name(), err)
	}
	return tr
}

func tenMbps() netsim.Config {
	return netsim.Config{
		Rate:        1_250_000,
		BufferBytes: 125_000, // 100 ms of buffering
		PropDelay:   20 * sim.Millisecond,
		Seed:        42,
	}
}

func TestCubicSaturatesBottleneck(t *testing.T) {
	tr := runFlow(t, NewCubic(), tenMbps(), 20*sim.Second)
	// Cubic should achieve most of the 10 Mbps bottleneck.
	util := tr.Throughput() / 10e6
	if util < 0.7 {
		t.Errorf("cubic utilization = %.2f, want ≥ 0.7", util)
	}
	if util > 1.02 {
		t.Errorf("cubic utilization = %.2f exceeds link rate", util)
	}
	// A loss-based protocol against a drop-tail buffer must see some loss.
	if tr.LossRate() == 0 {
		t.Error("cubic saw no loss on a saturated drop-tail queue")
	}
}

func TestRenoSaturatesBottleneck(t *testing.T) {
	tr := runFlow(t, NewReno(), tenMbps(), 20*sim.Second)
	util := tr.Throughput() / 10e6
	if util < 0.6 {
		t.Errorf("reno utilization = %.2f, want ≥ 0.6", util)
	}
}

func TestVegasLowDelayVsCubic(t *testing.T) {
	// The paper picks Vegas as treatment because its delay sensitivity makes
	// it behave very differently from Cubic: lower queueing delay and
	// (near-)zero loss on the same path.
	cubic := runFlow(t, NewCubic(), tenMbps(), 20*sim.Second)
	vegas := runFlow(t, NewVegas(), tenMbps(), 20*sim.Second)
	cp95 := cubic.DelayPercentile(95)
	vp95 := vegas.DelayPercentile(95)
	if !(vp95 < cp95) {
		t.Errorf("vegas p95 delay %.1fms not below cubic %.1fms", vp95, cp95)
	}
	if vegas.LossRate() > cubic.LossRate() {
		t.Errorf("vegas loss %.4f exceeds cubic loss %.4f", vegas.LossRate(), cubic.LossRate())
	}
	// Vegas should still get reasonable throughput.
	if vegas.Throughput() < 2e6 {
		t.Errorf("vegas throughput %.0f too low", vegas.Throughput())
	}
}

func TestBBRTracksBandwidth(t *testing.T) {
	tr := runFlow(t, NewBBR(1500), tenMbps(), 20*sim.Second)
	util := tr.Throughput() / 10e6
	if util < 0.6 {
		t.Errorf("bbr utilization = %.2f, want ≥ 0.6", util)
	}
	if util > 1.05 {
		t.Errorf("bbr utilization = %.2f exceeds link rate", util)
	}
}

func TestCBRHoldsConstantRate(t *testing.T) {
	// 2 Mbps CBR over a 10 Mbps link: ~no queueing, rate equals target.
	tr := runFlow(t, NewCBR(250_000), tenMbps(), 10*sim.Second)
	if math.Abs(tr.Throughput()-2e6)/2e6 > 0.05 {
		t.Errorf("CBR throughput = %.0f, want ≈2e6", tr.Throughput())
	}
	// Delay should stay near propagation (no persistent queue).
	if p95 := tr.DelayPercentile(95); p95 > 30 {
		t.Errorf("CBR p95 delay = %.1fms, want near propagation 20ms", p95)
	}
}

func TestCBROverloadedSeesLossAndDelay(t *testing.T) {
	// 20 Mbps CBR into a 10 Mbps link: heavy loss, delay pinned at buffer.
	tr := runFlow(t, NewCBR(2_500_000), tenMbps(), 10*sim.Second)
	if tr.LossRate() < 0.3 {
		t.Errorf("overloaded CBR loss = %.2f, want ≥ 0.3", tr.LossRate())
	}
	// Queueing delay should approach buffer/rate = 100 ms + 20 ms prop.
	if p95 := tr.DelayPercentile(95); p95 < 90 {
		t.Errorf("overloaded CBR p95 delay = %.1fms, want ≈120ms", p95)
	}
}

func TestRTCBacksOffUnderCongestion(t *testing.T) {
	// RTC shares a 10 Mbps link with 8 Mbps of cross traffic; it must
	// converge to roughly the residual capacity and keep delay moderate.
	cfg := tenMbps()
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	path.AddCrossTraffic(netsim.ConstantBitRate{Rate: 1_000_000, From: 0, To: 30 * sim.Second})
	rtc := NewRTC(RTCConfig{InitialRate: 250_000, MaxRate: 2_500_000})
	flow := NewFlow(sched, path.Port("main"), rtc, FlowConfig{
		Duration: 30 * sim.Second,
		AckDelay: cfg.PropDelay,
	})
	flow.Start()
	sched.RunUntil(35 * sim.Second)
	tr := flow.Trace()
	// Residual capacity is 2 Mbps; RTC should be in its neighbourhood and
	// must not sit at its 20 Mbps max.
	tput := tr.Throughput()
	if tput > 4e6 {
		t.Errorf("RTC throughput %.0f far above residual capacity 2e6", tput)
	}
	if tput < 0.5e6 {
		t.Errorf("RTC throughput %.0f collapsed below 0.5 Mbps", tput)
	}
	if tr.LossRate() > 0.2 {
		t.Errorf("RTC loss rate %.2f too high for a delay-based controller", tr.LossRate())
	}
}

func TestTwoCubicFlowsShare(t *testing.T) {
	// Two closed-loop Cubic flows on one path split the bottleneck.
	cfg := tenMbps()
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	f1 := NewFlow(sched, path.Port("a"), NewCubic(), FlowConfig{Duration: 20 * sim.Second, AckDelay: cfg.PropDelay})
	f2 := NewFlow(sched, path.Port("b"), NewCubic(), FlowConfig{Duration: 20 * sim.Second, AckDelay: cfg.PropDelay})
	f1.Start()
	f2.Start()
	sched.RunUntil(25 * sim.Second)
	t1, t2 := f1.Trace().Throughput(), f2.Trace().Throughput()
	total := t1 + t2
	if total < 7e6 || total > 10.5e6 {
		t.Errorf("aggregate of two cubic flows = %.1f Mbps, want ≈10", total/1e6)
	}
	// Rough fairness: neither flow starved.
	if t1 < 1e6 || t2 < 1e6 {
		t.Errorf("unfair split: %.1f / %.1f Mbps", t1/1e6, t2/1e6)
	}
}

func TestFlowTraceAccounting(t *testing.T) {
	tr := runFlow(t, NewCubic(), tenMbps(), 5*sim.Second)
	if len(tr.Packets) == 0 {
		t.Fatal("no packets recorded")
	}
	// Seqs contiguous from 0.
	for i, p := range tr.Packets {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
		if p.Size != 1500 {
			t.Fatalf("packet %d has size %d", i, p.Size)
		}
	}
	// All sends inside [0, duration].
	last := tr.Packets[len(tr.Packets)-1].SendTime
	if last > 5*sim.Second {
		t.Errorf("packet sent at %v after duration", last)
	}
}

func TestFlowRespectsStartTime(t *testing.T) {
	cfg := tenMbps()
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	flow := NewFlow(sched, path.Port("m"), NewCubic(), FlowConfig{
		Start: 2 * sim.Second, Duration: 3 * sim.Second, AckDelay: cfg.PropDelay,
	})
	flow.Start()
	sched.RunUntil(10 * sim.Second)
	tr := flow.Trace()
	if len(tr.Packets) == 0 {
		t.Fatal("no packets")
	}
	if tr.Packets[0].SendTime < 2*sim.Second {
		t.Errorf("first packet at %v, before start time", tr.Packets[0].SendTime)
	}
}

func TestFlowDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero duration did not panic")
		}
	}()
	NewFlow(sim.NewScheduler(), nil, NewCubic(), FlowConfig{})
}

func TestRTODetectsTailLoss(t *testing.T) {
	// A path that black-holes everything: the sender must detect losses via
	// RTO rather than hang, and the trace must mark all packets lost.
	sched := sim.NewScheduler()
	net := &blackhole{sched: sched}
	sender := NewReno()
	flow := NewFlow(sched, net, sender, FlowConfig{Duration: 2 * sim.Second})
	flow.Start()
	sched.RunUntil(10 * sim.Second)
	tr := flow.Trace()
	if len(tr.Packets) == 0 {
		t.Fatal("no packets sent")
	}
	if tr.LossRate() != 1 {
		t.Errorf("loss rate = %v, want 1", tr.LossRate())
	}
	if !flow.Done() {
		t.Error("flow not done after RTO drained outstanding packets")
	}
}

// blackhole drops every packet.
type blackhole struct{ sched *sim.Scheduler }

func (b *blackhole) Now() sim.Time { return b.sched.Now() }
func (b *blackhole) Send(size int, onDeliver func(sim.Time), onDrop func()) {
	if onDrop != nil {
		b.sched.After(sim.Millisecond, onDrop)
	}
}

func TestDupAckLossDetection(t *testing.T) {
	// Drop exactly one mid-stream packet; the sender must see exactly one
	// OnLoss (via dupacks) and the trace must mark exactly that packet.
	sched := sim.NewScheduler()
	net := &dropNth{sched: sched, n: 30}
	rec := &recordingSender{win: 10}
	flow := NewFlow(sched, net, rec, FlowConfig{Duration: sim.Second})
	flow.Start()
	sched.RunUntil(5 * sim.Second)
	if len(rec.losses) != 1 {
		t.Fatalf("sender saw %d losses, want 1 (%v)", len(rec.losses), rec.losses)
	}
	if rec.losses[0] != 30 {
		t.Errorf("lost seq = %d, want 30", rec.losses[0])
	}
	tr := flow.Trace()
	for _, p := range tr.Packets {
		if p.Lost != (p.Seq == 30) {
			t.Errorf("packet %d lost=%v", p.Seq, p.Lost)
		}
	}
}

// dropNth delivers everything except the n-th packet, with fixed delay.
type dropNth struct {
	sched *sim.Scheduler
	n     int
	count int
}

func (d *dropNth) Now() sim.Time { return d.sched.Now() }
func (d *dropNth) Send(size int, onDeliver func(sim.Time), onDrop func()) {
	i := d.count
	d.count++
	if i == d.n {
		d.sched.After(sim.Millisecond, onDrop)
		return
	}
	d.sched.After(10*sim.Millisecond, func() { onDeliver(d.sched.Now()) })
}

// recordingSender is a fixed-window sender that records loss callbacks.
type recordingSender struct {
	win    int
	losses []int64
}

func (r *recordingSender) Name() string        { return "recording" }
func (r *recordingSender) OnAck(sim.Time, Ack) {}
func (r *recordingSender) OnLoss(_ sim.Time, seq int64, _ sim.Time) {
	r.losses = append(r.losses, seq)
}
func (r *recordingSender) Window() int         { return r.win }
func (r *recordingSender) PacingRate() float64 { return 0 }

func TestRegistry(t *testing.T) {
	for _, name := range Protocols() {
		s, err := NewSender(name, 1500)
		if err != nil {
			t.Errorf("NewSender(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("NewSender(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := NewSender("nope", 1500); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestDeterministicFlows(t *testing.T) {
	run := func() float64 {
		cfg := tenMbps()
		cfg.Cellular = &netsim.CellularModel{Interval: 100 * sim.Millisecond, Sigma: 0.3, MinShare: 0.3, MaxShare: 1.2}
		sched := sim.NewScheduler()
		path := netsim.New(sched, cfg)
		flow := NewFlow(sched, path.Port("m"), NewCubic(), FlowConfig{Duration: 10 * sim.Second, AckDelay: cfg.PropDelay})
		flow.Start()
		sched.RunUntil(12 * sim.Second)
		return flow.Trace().Throughput()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestAckFields(t *testing.T) {
	a := Ack{SendTime: sim.Second, RecvTime: sim.Second + 30*sim.Millisecond, AckTime: sim.Second + 50*sim.Millisecond}
	if a.OWD() != 30*sim.Millisecond {
		t.Errorf("OWD = %v", a.OWD())
	}
	if a.RTT() != 50*sim.Millisecond {
		t.Errorf("RTT = %v", a.RTT())
	}
}

func TestByteLimitedFlowCompletes(t *testing.T) {
	cfg := tenMbps()
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	var doneAt sim.Time = -1
	flow := NewFlow(sched, path.Port("m"), NewCubic(), FlowConfig{
		Duration: 60 * sim.Second, // generous upper bound
		Bytes:    750_000,         // 500 × 1500 B
		AckDelay: cfg.PropDelay,
		OnComplete: func(at sim.Time) {
			if doneAt >= 0 {
				t.Error("OnComplete fired twice")
			}
			doneAt = at
		},
	})
	flow.Start()
	sched.RunUntil(30 * sim.Second)
	if doneAt < 0 {
		t.Fatal("transfer never completed")
	}
	tr := flow.Trace()
	if got := int64(len(tr.Packets)) * 1500; got != 750_000 {
		t.Errorf("sent %d bytes, want exactly 750000", got)
	}
	// 750 kB minus drop-tail losses at ≤10 Mbps: a few hundred ms minimum.
	if doneAt < 300*sim.Millisecond || doneAt > 10*sim.Second {
		t.Errorf("completion at %v implausible", doneAt)
	}
	if !flow.Done() {
		t.Error("flow not done")
	}
}

func TestByteLimitedFlowCompletesDespiteLoss(t *testing.T) {
	// A lossy path: OnComplete must still fire (losses resolved by dupack
	// or RTO, not hanging the inflight count).
	cfg := tenMbps()
	cfg.LossProb = 0.05
	sched := sim.NewScheduler()
	path := netsim.New(sched, cfg)
	fired := false
	flow := NewFlow(sched, path.Port("m"), NewCubic(), FlowConfig{
		Duration: 60 * sim.Second, Bytes: 300_000, AckDelay: cfg.PropDelay,
		OnComplete: func(sim.Time) { fired = true },
	})
	flow.Start()
	sched.RunUntil(30 * sim.Second)
	if !fired {
		t.Error("OnComplete never fired on a lossy path")
	}
}

// TestTraceTakenMidFlight: Trace is the same trace whenever it is taken.
// Taken while packets are in flight, the packets delivered afterwards are
// marked delivered in it and the packets sent afterwards are appended to
// it, so it ends equal to the trace of the same flow taken at the end.
func TestTraceTakenMidFlight(t *testing.T) {
	run := func(peekAt sim.Time) *trace.Trace {
		sched := sim.NewScheduler()
		path := netsim.New(sched, tenMbps())
		flow := NewFlow(sched, path.Port("main"), NewCubic(), FlowConfig{Duration: 3 * sim.Second, AckDelay: 20 * sim.Millisecond})
		flow.Start()
		var early *trace.Trace
		if peekAt > 0 {
			sched.RunUntil(peekAt)
			early = flow.Trace()
			if flow.Inflight() == 0 {
				t.Fatal("nothing in flight when the trace was taken")
			}
		}
		sched.RunUntil(5 * sim.Second)
		if tr := flow.Trace(); early != nil && tr != early {
			t.Fatal("Trace returned a different trace after the first call")
		}
		return flow.Trace()
	}
	want := run(0)
	for _, at := range []sim.Time{1 * sim.Millisecond, 1500 * sim.Millisecond} {
		got := run(at)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace taken at %v: %d packets, differs from the one taken at the end (%d packets)",
				at, len(got.Packets), len(want.Packets))
		}
	}
}

// steadyFlow runs a trace-less cubic flow over a 10 Mbit/s netsim path
// through ten seconds of warm-up (several loss cycles, so the window, the
// packet pools and the scheduler have reached their working size).
func steadyFlow() (*sim.Scheduler, *Flow) {
	sched := sim.NewScheduler()
	path := netsim.New(sched, tenMbps())
	flow := NewFlow(sched, path.Port("main"), NewCubic(), FlowConfig{
		Duration: 3600 * sim.Second,
		AckDelay: 20 * sim.Millisecond,
		NoTrace:  true,
	})
	flow.Start()
	sched.RunUntil(10 * sim.Second)
	return sched, flow
}

// TestFlowSteadyStateAllocs: a packet's whole life — transmit, netsim
// propagation, queueing and service, delivery, ack, loss detection, RTO
// re-arm — allocates nothing once the flow is warm.
func TestFlowSteadyStateAllocs(t *testing.T) {
	sched, flow := steadyFlow()
	sent := flow.Sent()
	const rounds = 20
	allocs := testing.AllocsPerRun(rounds, func() {
		sched.RunUntil(sched.Now() + sim.Second)
	})
	perRound := float64(flow.Sent()-sent) / (rounds + 1) // AllocsPerRun adds a warm-up call
	if perRound < 500 {
		t.Fatalf("flow sent only %.0f packets per simulated second", perRound)
	}
	if perPacket := allocs / perRound; perPacket > 0.01 {
		t.Errorf("%.3f allocations per packet in steady state (%.1f per %.0f packets), want amortised 0",
			perPacket, allocs, perRound)
	}
}

// BenchmarkFlowPacket is the cost of one packet through cc.Flow (cubic)
// over a netsim.Path, everything included. A flow sends for an hour of
// simulated time (≈3 M packets); once its scheduler runs dry the count
// continues on a fresh warm flow, so any -benchtime finishes.
func BenchmarkFlowPacket(b *testing.B) {
	sched, flow := steadyFlow()
	b.ReportAllocs()
	b.ResetTimer()
	for left := int64(b.N); left > 0; {
		sent := flow.Sent()
		if !sched.Step() {
			b.StopTimer()
			sched, flow = steadyFlow()
			b.StartTimer()
			continue
		}
		left -= flow.Sent() - sent
	}
}
