package session

import (
	"fmt"
	"math"
	"math/rand"

	"ibox/internal/cc"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// The session's data path: a learned artifact instantiated as a
// cc.Network on the session's private scheduler, wrapped in a shim that
// applies live mutations (loss/reorder bursts) and lets the inner path
// be swapped out mid-session (bandwidth rescale, checkpoint swap)
// without disturbing the flow — exactly how `tc qdisc change` alters a
// live interface under an established connection. Packets already in
// flight on the old path still deliver: their events stay scheduled on
// the shared scheduler.

// ModelSwap is a resolved replacement artifact for a mid-session
// checkpoint swap. The serving layer resolves the registry id into one
// of these before handing it to Session.Mutate.
type ModelSwap struct {
	Checkpoint string
	Kind       string // "iboxnet" | "iboxml"
	Net        iboxnet.Params
	Variant    iboxnet.Variant
	ML         *iboxml.Model
}

// Mutation is one live path change, applied atomically at a tick
// boundary. Zero/nil fields leave that aspect untouched. Rate pointers
// distinguish "set to zero" (end the impairment) from "unspecified".
type Mutation struct {
	// BandwidthScale multiplies the path's current bottleneck rate
	// (iboxnet: the path is rebuilt at the scaled rate; iboxml: predicted
	// delays scale by the reciprocal). 1 or 0 = unchanged.
	BandwidthScale float64 `json:"bandwidth_scale,omitempty"`
	// LossRate injects i.i.d. packet loss at this probability for
	// LossBurstS seconds of virtual time (0 = until changed again).
	LossRate   *float64 `json:"loss_rate,omitempty"`
	LossBurstS float64  `json:"loss_burst_s,omitempty"`
	// ReorderRate delays this fraction of packets by ReorderExtraMs for
	// ReorderBurstS seconds of virtual time, reordering them past
	// packets sent later.
	ReorderRate    *float64 `json:"reorder_rate,omitempty"`
	ReorderExtraMs float64  `json:"reorder_extra_ms,omitempty"`
	ReorderBurstS  float64  `json:"reorder_burst_s,omitempty"`
	// Checkpoint names the registry artifact to swap in; the serving
	// layer resolves it into Swap.
	Checkpoint string     `json:"checkpoint,omitempty"`
	Swap       *ModelSwap `json:"-"`
}

func (mu *Mutation) validate() error {
	if mu.BandwidthScale < 0 {
		return fmt.Errorf("session: bandwidth_scale must be positive, got %g", mu.BandwidthScale)
	}
	if mu.LossRate != nil && (*mu.LossRate < 0 || *mu.LossRate >= 1) {
		return fmt.Errorf("session: loss_rate must be in [0, 1), got %g", *mu.LossRate)
	}
	if mu.ReorderRate != nil && (*mu.ReorderRate < 0 || *mu.ReorderRate > 1) {
		return fmt.Errorf("session: reorder_rate must be in [0, 1], got %g", *mu.ReorderRate)
	}
	if mu.BandwidthScale == 0 && mu.LossRate == nil && mu.ReorderRate == nil &&
		mu.Checkpoint == "" && mu.Swap == nil {
		return fmt.Errorf("session: mutation changes nothing")
	}
	return nil
}

// pathShim is the mutable cc.Network the flow actually sends over.
// All fields are touched only from the session's run goroutine (and
// the sim callbacks it drives), so no locking is needed.
type pathShim struct {
	sched *sim.Scheduler
	inner cc.Network
	rng   *rand.Rand

	lossRate  float64
	lossUntil sim.Time

	reorderRate  float64
	reorderExtra sim.Time
	reorderUntil sim.Time
	free         *shimPkt
}

// shimPkt is one packet a reorder burst holds back: a recycled object
// whose callbacks are bound once, like mlPkt. The inner path reports it
// through deliveredFn or droppedFn; a delivery then waits out extra
// before reaching the flow.
type shimPkt struct {
	shim        *pathShim
	onDeliver   func(recv sim.Time)
	onDrop      func()
	extra       sim.Time
	recv        sim.Time
	next        *shimPkt
	deliveredFn func(recv sim.Time)
	droppedFn   func()
	arriveFn    func()
}

func (k *shimPkt) delivered(recv sim.Time) {
	k.recv = recv
	k.shim.sched.After(k.extra, k.arriveFn)
}

func (k *shimPkt) dropped() {
	onDrop := k.onDrop
	k.release()
	onDrop()
}

func (k *shimPkt) arrive() {
	onDeliver, recv := k.onDeliver, k.recv+k.extra
	k.release()
	onDeliver(recv)
}

// release returns k to its shim's free list.
func (k *shimPkt) release() {
	p := k.shim
	k.onDeliver, k.onDrop, k.next = nil, nil, p.free
	p.free = k
}

func (p *pathShim) Now() sim.Time { return p.sched.Now() }

func (p *pathShim) Send(size int, onDeliver func(recv sim.Time), onDrop func()) {
	now := p.sched.Now()
	if p.lossRate > 0 && now < p.lossUntil && p.rng.Float64() < p.lossRate {
		onDrop()
		return
	}
	if p.reorderRate > 0 && now < p.reorderUntil && p.rng.Float64() < p.reorderRate {
		k := p.free
		if k == nil {
			k = &shimPkt{shim: p}
			k.deliveredFn, k.droppedFn, k.arriveFn = k.delivered, k.dropped, k.arrive
		} else {
			p.free = k.next
		}
		k.onDeliver, k.onDrop, k.extra = onDeliver, onDrop, p.reorderExtra
		onDeliver, onDrop = k.deliveredFn, k.droppedFn
	}
	p.inner.Send(size, onDeliver, onDrop)
}

// mlNet adapts an iBoxML hierarchical predictor to the cc.Network
// contract: each packet is priced by the amortized per-packet delay
// model (§4.2) and delivered that many milliseconds later. Loss is not
// part of the learned model; injected bursts live in the shim above.
type mlNet struct {
	sched      *sim.Scheduler
	model      *iboxml.Model
	h          *iboxml.HierarchicalPredictor
	delayScale float64 // bandwidth scale s ⇒ delays × 1/s
	score      func(pit, nll float64)
	free       *mlPkt
}

// mlPkt is one packet waiting out its predicted delay: a recycled object
// whose timer callback is bound once, like netsim's packets.
type mlPkt struct {
	net       *mlNet
	onDeliver func(recv sim.Time)
	next      *mlPkt
	arriveFn  func()
}

func (k *mlPkt) arrive() {
	n, onDeliver := k.net, k.onDeliver
	k.onDeliver, k.next = nil, n.free
	n.free = k
	onDeliver(n.sched.Now())
}

func (n *mlNet) Now() sim.Time { return n.sched.Now() }

func (n *mlNet) Send(size int, onDeliver func(recv sim.Time), onDrop func()) {
	d := n.h.PacketDelay(n.sched.Now(), size)
	if n.score != nil {
		mu, sigma := n.h.Group()
		n.score(n.model.ScoreDelay(mu, sigma, d))
	}
	d *= n.delayScale
	dt := sim.Time(d * float64(sim.Millisecond))
	if dt < 1 {
		dt = 1
	}
	k := n.free
	if k == nil {
		k = &mlPkt{net: n}
		k.arriveFn = k.arrive
	} else {
		n.free = k.next
	}
	k.onDeliver = onDeliver
	n.sched.After(dt, k.arriveFn)
}

// trimCrossTraffic drops the windows of a cross-traffic series that lie
// entirely before `now`. Rebuilding an iboxnet path mid-session must
// not re-inject windows that already played out: netsim's Replay clamps
// past send times to "now", which would dump their bytes onto the fresh
// queue all at once.
func trimCrossTraffic(ct *trace.Series, now sim.Time) *trace.Series {
	if ct == nil || ct.Step <= 0 {
		return ct
	}
	skip := 0
	for skip < len(ct.Vals) && ct.TimeAt(skip+1) <= now {
		skip++
	}
	if skip == 0 {
		return ct
	}
	return &trace.Series{
		Start: ct.TimeAt(skip),
		Step:  ct.Step,
		Vals:  ct.Vals[skip:],
	}
}

// buildNetwork instantiates the session's current artifact on sched.
// rebuilds counts path rebuilds so each instantiation draws an
// independent (but deterministic) random stream.
func (s *Session) buildNetwork(rebuilds int) (cc.Network, error) {
	seed := s.cfg.Seed + int64(rebuilds)*1_000_003
	switch s.kind {
	case KindIBoxNet:
		p := s.net
		if s.bwScale != 1 {
			p.Bandwidth *= s.bwScale
		}
		p.CrossTraffic = trimCrossTraffic(p.CrossTraffic, s.sched.Now())
		return p.Emulate(s.sched, s.variant, seed).Port("main"), nil
	case KindIBoxML:
		if s.ml == nil {
			return nil, fmt.Errorf("session: iboxml session has no model")
		}
		scale := 1.0
		if s.bwScale > 0 {
			scale = 1 / s.bwScale
		}
		var score func(pit, nll float64)
		if s.cfg.Score != nil {
			score = s.cfg.Score(s.checkpoint)
		}
		return &mlNet{
			sched:      s.sched,
			model:      s.ml,
			h:          s.ml.NewHierarchical(seed),
			delayScale: scale,
			score:      score,
		}, nil
	}
	return nil, fmt.Errorf("session: unknown model kind %q", s.kind)
}

// applyMutation executes one mutation inside the run goroutine, between
// ticks, and returns the applied record for the event stream. The
// scheduler is quiescent (RunUntil returned), so rebuilding a path —
// which schedules fresh cross-traffic and token-bucket events — is
// safe.
func (s *Session) applyMutation(mu Mutation) (*AppliedMutation, error) {
	if err := mu.validate(); err != nil {
		return nil, err
	}
	applied := &AppliedMutation{}
	now := s.sched.Now()

	if mu.Swap != nil {
		// kind and checkpoint are read by Info from other goroutines.
		s.infoMu.Lock()
		s.kind = mu.Swap.Kind
		s.checkpoint = mu.Swap.Checkpoint
		s.infoMu.Unlock()
		s.net = mu.Swap.Net
		s.variant = mu.Swap.Variant
		s.ml = mu.Swap.ML
		applied.Checkpoint = mu.Swap.Checkpoint
	}
	if mu.BandwidthScale > 0 && mu.BandwidthScale != 1 {
		s.bwScale *= mu.BandwidthScale
		applied.BandwidthScale = mu.BandwidthScale
		if s.kind == KindIBoxNet {
			applied.BandwidthBps = s.net.Bandwidth * s.bwScale * 8
		}
	}
	if mu.Swap != nil || applied.BandwidthScale != 0 {
		s.rebuilds++
		inner, err := s.buildNetwork(s.rebuilds)
		if err != nil {
			return nil, err
		}
		s.shim.inner = inner
	}
	if mu.LossRate != nil {
		s.shim.lossRate = *mu.LossRate
		s.shim.lossUntil = burstEnd(now, mu.LossBurstS)
		applied.LossRate = *mu.LossRate
		applied.LossBurstS = mu.LossBurstS
	}
	if mu.ReorderRate != nil {
		s.shim.reorderRate = *mu.ReorderRate
		s.shim.reorderExtra = sim.Time(mu.ReorderExtraMs * float64(sim.Millisecond))
		if s.shim.reorderExtra <= 0 {
			s.shim.reorderExtra = 20 * sim.Millisecond
		}
		s.shim.reorderUntil = burstEnd(now, mu.ReorderBurstS)
		applied.ReorderRate = *mu.ReorderRate
		applied.ReorderExtraMs = s.shim.reorderExtra.Millis()
		applied.ReorderBurstS = mu.ReorderBurstS
	}
	return applied, nil
}

// burstEnd converts a burst duration in seconds into the virtual
// deadline it expires at; 0 means "until changed again".
func burstEnd(now sim.Time, burstS float64) sim.Time {
	if burstS <= 0 {
		return sim.Time(math.MaxInt64)
	}
	return now + sim.FromSeconds(burstS)
}
